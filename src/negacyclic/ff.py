"""Arithmetic in GF(p^m): construction, primitive elements, roots of unity,
traces, and subfield embeddings.

An element is its power-basis coordinates packed into one Python int by
Kronecker substitution: digit i sits in the i-th byte-aligned slot, and a slot
is wide enough for any unreduced product coefficient, at most (p-1)^2 * m.  A
product is one big-int multiply; the digits are then reduced mod p by one
bytes.translate and the high digits folded back through the field's table of
x^(m+i) mod f.  Sums, differences and negation are one int operation and the
same digit reduction.  `coeffs`, `as_int` and `from_int` convert to and from
the packed form.  Every search performed here (default modulus, root of
unity, subfield root) returns its first candidate in a fixed order, so
repeated runs construct identical objects.  Field and FieldElement are
immutable after construction and safe to share across threads.

All polynomial arithmetic mod f is FieldElement arithmetic in the ring
GF(p)[x]/(f).  The default modulus of GF(p^m) is the smallest-encoding f for
which x has order p^m - 1 in that ring, which proves f primitive (the
search first sieves out the candidates with a small irreducible factor, see
_sieved); GF(3^6), GF(3^14), GF(3^18), GF(3^20), GF(3^22) and GF(3^25)
instead keep the pinned primitive moduli of _PINNED_MODULI.  A supplied
modulus must pass Rabin's irreducibility test in its ring, which needs the
primes of m only, or the error names its smallest factor, found by
distinct-degree factorization and a seeded equal-degree split.

Roots of unity and subfield roots are found by their exact order N, which
needs the primes of N only: p^m - 1 is factored by the default-modulus
search, FieldElement.order and primitive_element alone.
"""

from __future__ import annotations

import functools
import itertools
import random
from operator import getitem
from typing import Iterator, Optional, Sequence

import numpy as np


class FieldError(ValueError):
    """Invalid field construction or element operation."""


# ---------------------------------------------------------------------------
# integer helpers (desk scale: trial division is plenty)

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(factorize(n)) if n > 1 else ()


def _poly_text(coeffs: Sequence[int]) -> str:
    return ",".join(str(c) for c in coeffs)


def _monic(p: int, enc: int, d: int) -> list[int]:
    """The monic degree-d polynomial whose low coefficients encode enc."""
    return [(enc // p ** i) % p for i in range(d)] + [1]


def _has_order(x: "FieldElement", n: int) -> bool:
    """x has multiplicative order exactly n: x^n = 1 and x^(n/r) != 1 for
    every prime r | n."""
    return (x._pow_pos(n).is_one()
            and not any(x._pow_pos(n // r).is_one() for r in _prime_divisors(n)))


def _has_full_order(x: "FieldElement") -> bool:
    """x has order p^m-1.

    In GF(p)[x]/(f) a unit of order p^m-1 leaves no room for zero divisors,
    so when x is the class of x this proves f primitive, hence irreducible.
    """
    return _has_order(x, x.field.order - 1)


def _sieve_exponent(p: int) -> int:
    """Largest e >= 1 with p^e <= 729: the sieve rejects factors of degree
    <= e, about p^e of them, and takes blocks of p^(e // 3) candidates."""
    e = 1
    while p ** (e + 1) <= 729:
        e += 1
    return e


@functools.lru_cache(maxsize=None)
def _irreducibles(p: int, d: int) -> tuple[int, ...]:
    """Encodings of the monic irreducible degree-d polynomials over GF(p)."""
    if d == 1:
        return tuple(range(p))
    return tuple(_sieved(p, d, d // 2))


def _sieved(p: int, m: int, depth: int) -> Iterator[int]:
    """In increasing order, the encodings enc of the monic degree-m
    polynomials f (low coefficients enc's base-p digits) with no
    irreducible factor of degree <= depth.

    f mod g is linear in f's coefficients.  With res[i] the digits of
    x^i mod g for every monic irreducible g of degree <= depth side by side,
    a block of p^b candidates sharing their high digits is a table of the
    low digits' sums (built once) plus one row, and g | f where all of g's
    digits are 0.
    """
    gs = [(d, enc) for d in range(1, depth + 1) for enc in _irreducibles(p, d)]
    deg = np.array([d for d, _ in gs])
    starts = np.cumsum(deg) - deg                 # each g's digit 0
    cols = int(deg.sum())
    below = np.arange(cols) - 1                   # the digit below, and
    below[starts] = cols                          # for digit 0 a zero column
    top = np.repeat(starts + deg - 1, deg)        # g's top digit
    fold = (p - np.concatenate([_monic(p, enc, d)[:-1] for d, enc in gs])) % p
    res = np.zeros((m + 1, cols + 1), np.int64)
    res[0, starts] = 1                            # x^0 mod g = 1
    for i in range(m):  # x * r mod g: shift r up a digit, fold its top digit
        res[i + 1, :cols] = (res[i, below] + res[i, top] * fold) % p
    b = max(1, min(m, _sieve_exponent(p) // 3))
    table = np.zeros((1, cols + 1), np.int64)
    for i in range(b):  # rows lo + c * p^i: the rows lo, plus c * res[i]
        table = (table + np.arange(p)[:, None, None] * res[i]).reshape(-1, cols + 1) % p
    for hi in range(p ** (m - b)):
        row = res[m].copy()
        for i, c in enumerate(_monic(p, hi, m - b)[:-1]):
            if c:
                row += c * res[b + i]
        # table + row = 0 mod p exactly where table = -row mod p
        spare = np.logical_or.reduceat(table != (p - row % p) % p, starts, axis=1)
        for lo in np.flatnonzero(spare.all(axis=1)).tolist():
            yield hi * p ** b + lo


def _search_modulus(p: int, m: int) -> list[int]:
    """Smallest-encoding primitive polynomial of degree m over GF(p): the
    full-order test runs on the candidates with no irreducible factor of
    degree <= min(m // 2, _sieve_exponent(p)), in increasing order."""
    for enc in _sieved(p, m, min(m // 2, _sieve_exponent(p))):
        cand = _monic(p, enc, m)
        if _has_full_order(Field._ring(p, cand).modulus_root()):
            return cand
    raise FieldError(f"no primitive modulus found for GF({p}^{m})")


def _smallest_factor(f: Sequence[int], p: int) -> list[int]:
    """Smallest-degree, smallest-encoding monic irreducible factor of f.

    Distinct-degree factorization: the smallest factor degree d is the first
    with gcd(f, x^(p^d) - x) != 1, x^(p^d) taken in GF(p)[x]/(f).  That gcd
    is the product of f's distinct degree-d factors, which an equal-degree
    split separates.
    """
    from .poly import Poly
    gfp = make_field(p, 1)
    fp = Poly.from_scalars(gfp, f)
    x = Poly.x(gfp)
    xq = Field._ring(p, f).modulus_root()
    for d in range(1, (len(f) - 1) // 2 + 1):
        xq = xq.frobenius()
        h = fp.gcd(Poly.from_scalars(gfp, xq.coeffs) - x)
        if h.degree > 0:
            factors = _equal_degree_split(h, d, random.Random(d))
            return min((g.to_ints() for g in factors), key=lambda c: c[::-1])
    return list(f)


def _equal_degree_split(h, d: int, rng: random.Random) -> list:
    """The factors of h, a monic product of distinct irreducible degree-d
    Polys over GF(p), by Cantor-Zassenhaus: for random a in GF(p)[x]/(h),
    gcd(h, a^((p^d-1)/2) - 1) (for p = 2, the trace a + a^2 + ... +
    a^(2^(d-1))) is a proper factor about half the time."""
    if h.degree == d:
        return [h]
    from .poly import Poly
    p = h.field.p
    ring = Field._ring(p, h.to_ints())
    while True:
        a = ring.from_int(rng.randrange(1, ring.order))
        if p == 2:
            s = t = a
            for _ in range(d - 1):
                t = t * t
                s = s + t
        else:
            s = a._pow_pos((p ** d - 1) // 2) - ring.one()
        g = h.gcd(Poly.from_scalars(h.field, s.coeffs))
        if 0 < g.degree < h.degree:
            return (_equal_degree_split(g, d, rng)
                    + _equal_degree_split(h // g, d, rng))


@functools.lru_cache(maxsize=None)
def _layout(p: int, m: int) -> tuple:
    """Packed layout of GF(p)[x]/(f), f of degree m.

    Digit i fills byte slot i, w bytes wide.  A slot holds any unreduced
    product coefficient, at most (p-1)^2 * m, and any sum of two digits, so
    big-int products and sums never carry between slots.  Returns w, the
    packed int with p in each of the m slots, the mod-p translate table for
    one byte, and the carry rounds over 2m - 1 slots: slot value hi*256 + lo
    -> hi*(256 % p) + lo keeps it mod p, and enough rounds (none when w = 1)
    bring every slot below 256, where the translate table finishes.
    """
    bound = max((p - 1) ** 2 * m, 2 * p - 1)
    w = (bound.bit_length() + 7) // 8
    unit = sum(1 << (8 * w * i) for i in range(2 * m - 1))
    rounds = 0
    while bound > 255:
        hi = bound >> 8
        bound = max(hi * (256 % p) + (bound & 255), (hi - 1) * (256 % p) + 255)
        rounds += 1
    carry = (rounds, ((1 << (8 * w - 8)) - 1) * unit, 255 * unit, 256 % p)
    pones = p * (unit & ((1 << (8 * w * m)) - 1))
    return w, pones, bytes(i % p for i in range(256)), carry


# Default moduli that differ from the search's answer.  Earlier releases
# picked these degrees' moduli with a faulty irreducibility test that skipped
# a smaller primitive polynomial; the bundled reference manifest records the
# GF(3^6) and GF(3^18) ones in its descriptors and cache keys.  Each is
# primitive and is validated like a supplied modulus.
_PINNED_MODULI = {
    (3, 6): (2, 2, 0, 0, 0, 0, 1),
    (3, 14): (2, 2, 2, 0, 1) + (0,) * 9 + (1,),
    (3, 18): (2, 1, 0, 1, 2, 1) + (0,) * 12 + (1,),
    (3, 20): (2, 2, 1, 0, 0, 1) + (0,) * 14 + (1,),
    (3, 22): (2, 1, 2, 2) + (0,) * 18 + (1,),
    (3, 25): (1, 2, 2, 2) + (0,) * 21 + (1,),
}


class Field:
    """GF(p^m) with a fixed monic irreducible modulus over GF(p).

    With no modulus the constructor takes the primitive polynomial of degree
    m with smallest coefficient encoding c0 + c1*p + ... (for m == 1 the
    conventional modulus is x), except that GF(3^6), GF(3^14), GF(3^18),
    GF(3^20), GF(3^22) and GF(3^25) keep the pinned primitive moduli in
    _PINNED_MODULI.  A supplied modulus has its coefficients in 0..p-1 and
    passes Rabin's irreducibility test, run in the ring GF(p)[x]/(f);
    otherwise the error names its smallest factor.  The characteristic p is
    at most 251, so that a digit fits in one byte of the packed form.
    """

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if p > 251:
            raise FieldError(f"characteristic {p} > 251: digits are packed one byte each")
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        searched = modulus is None and m > 1 and (p, m) not in _PINNED_MODULI
        if searched:
            modulus = _search_modulus(p, m)  # primitive, hence irreducible
        elif modulus is None:
            modulus = _PINNED_MODULI.get((p, m), (0, 1))  # m == 1: x
        elif not all(0 <= c < p for c in modulus):
            raise FieldError(f"modulus {_poly_text(modulus)} has a coefficient "
                             f"outside 0..{p - 1}")
        modulus = list(modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError(f"modulus must be monic of degree {m}")
        self._set_ring(p, modulus)
        if not searched and not self._rabin_irreducible():
            raise FieldError(
                f"modulus {_poly_text(modulus)} is reducible over GF({p}); "
                f"divisible by {_poly_text(_smallest_factor(modulus, p))}"
            )
        self._tables = None

    def _set_ring(self, p: int, modulus: Sequence[int]) -> None:
        self.p = p
        self.m = m = len(modulus) - 1
        self.order = p ** m
        self.modulus = tuple(modulus)
        self._w, self._pones, self._modp, self._carry = _layout(p, m)
        self._nbytes = m * self._w
        # _fold[i][d] = d * (x^(m+i) mod f), for the high digits of a product;
        # tail is x^m mod f, and cur steps from x^(m-1) by x
        slot, top = 8 * self._w, 8 * self._nbytes
        tail = sum(((-c) % p) << (slot * i) for i, c in enumerate(modulus[:-1]))
        fold = []
        cur = 1 << (top - slot)
        for _ in range(m - 1):
            cur <<= slot
            cur = self._norm((cur & ((1 << top) - 1)) + (cur >> top) * tail, m)
            fold.append(tuple(d * cur for d in range(p)))
        self._fold = tuple(fold)

    def _norm(self, v: int, slots: int) -> int:
        """v with every slot reduced mod p (slots: how many v spans)."""
        return int.from_bytes(self._digit_bytes(v, slots), "little")

    def _digit_bytes(self, v: int, slots: int) -> bytes:
        rounds, hi, lo, r = self._carry
        for _ in range(rounds):
            v = ((v >> 8) & hi) * r + (v & lo)
        return v.to_bytes(slots * self._w, "little").translate(self._modp)

    def _digits(self, v: int) -> bytes:
        return v.to_bytes(self._nbytes, "little")[::self._w]

    @classmethod
    def _ring(cls, p: int, modulus: Sequence[int]) -> "Field":
        """GF(p)[x]/(modulus) for any monic modulus, unchecked: a field only
        when the modulus is irreducible."""
        ring = cls.__new__(cls)
        ring._set_ring(p, modulus)
        return ring

    def _rabin_irreducible(self) -> bool:
        """Rabin's test: x^(p^m) = x, and x^(p^(m/r)) - x is a unit (its
        (p^m-1)-th power is 1) for every prime r | m."""
        x = self.modulus_root()
        frob = [x]  # frob[k] = x^(p^k)
        for _ in range(self.m):
            frob.append(frob[-1].frobenius())
        if frob[-1] != x:
            return False
        return all((frob[self.m // r] - x)._pow_pos(self.order - 1).is_one()
                   for r in _prime_divisors(self.m))

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def from_int(self, i: int) -> "FieldElement":
        if not 0 <= i < self.order:
            raise FieldError(f"element encoding {i} out of range for {self}")
        v = shift = 0
        while i:
            i, c = divmod(i, self.p)
            v |= c << shift
            shift += 8 * self._w
        return FieldElement(self, v)

    def modulus_root(self) -> "FieldElement":
        """The class of x: a root of the modulus."""
        if self.m == 1:
            return self.scalar(-self.modulus[0])
        return FieldElement(self, 1 << (8 * self._w))

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.order):
            yield self.from_int(i)

    def scalar(self, c: int) -> "FieldElement":
        return FieldElement(self, c % self.p)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def descriptor(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": _poly_text(self.modulus)}

    # -- index tables for vectorized code arithmetic --------------------------

    TABLE_CAP = 1024

    def tables(self) -> "FieldTables":
        """Element-index operation tables (index i <-> from_int(i))."""
        if self._tables is None:
            q = self.order
            if q > self.TABLE_CAP:
                raise FieldError(f"index tables limited to order <= {self.TABLE_CAP}")
            dtype = np.int8 if q <= 127 else np.int16
            elems = [self.from_int(i) for i in range(q)]
            enc = {e: i for i, e in enumerate(elems)}
            add = np.zeros((q, q), dtype=dtype)
            mul = np.zeros((q, q), dtype=dtype)
            neg = np.zeros(q, dtype=dtype)
            inv = np.zeros(q, dtype=dtype)
            for i, a in enumerate(elems):
                neg[i] = enc[-a]
                if i:
                    inv[i] = enc[a.inverse()]
                for j, b in enumerate(elems):
                    add[i, j] = enc[a + b]
                    mul[i, j] = enc[a * b]
            self._tables = FieldTables(self, q, dtype, add, neg, mul, inv)
        return self._tables


class FieldTables:
    """Numpy add/neg/mul/inv tables over element indices, for vector math."""

    def __init__(self, field, q, dtype, add, neg, mul, inv):
        self.field = field
        self.q = q
        self.dtype = dtype
        self.add = add
        self.neg = neg
        self.mul = mul
        self.inv = inv


class FieldElement:
    """Immutable element of a Field: its power-basis coordinates c_0..c_{m-1}
    packed as the int sum of c_i << (8 * w * i), w the field's slot width in
    bytes (see the module docstring)."""

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v: int):
        self.field = field
        self.v = v

    def _check(self, other: "FieldElement"):
        if other.field is not self.field and self.field != other.field:
            raise FieldError(f"mixed fields: {self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, f._norm(self.v + other.v, f.m))

    def __sub__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, f._norm(self.v + f._pones - other.v, f.m))

    def __neg__(self):
        f = self.field
        return FieldElement(f, f._norm(f._pones - self.v, f.m))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        d = f._digit_bytes(self.v * other.v, 2 * f.m - 1)
        n = f._nbytes
        v = sum(map(getitem, f._fold, d[n::f._w]), int.from_bytes(d[:n], "little"))
        return FieldElement(f, f._norm(v, f.m))

    def _pow_pos(self, e: int) -> "FieldElement":
        if not e:
            return self.field.one()
        acc = None
        base = self
        while True:
            if e & 1:
                acc = base if acc is None else acc * base
            e >>= 1
            if not e:
                return acc
            base = base * base

    def __pow__(self, e: int) -> "FieldElement":
        if e >= 0:
            return self._pow_pos(e)
        return self.inverse()._pow_pos(-e)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise FieldError("zero has no inverse")
        return self._pow_pos(self.field.order - 2)

    def is_zero(self) -> bool:
        return not self.v

    def is_one(self) -> bool:
        return self.v == 1

    def order(self) -> int:
        """Multiplicative order (via the factored group order)."""
        if self.is_zero():
            raise FieldError("zero has no multiplicative order")
        o = self.field.order - 1
        if o == 0:
            return 1
        for prime in _prime_divisors(o):
            while o % prime == 0 and self._pow_pos(o // prime).is_one():
                o //= prime
        return o

    def frobenius(self, s: int = 1) -> "FieldElement":
        """The p^s-power map."""
        return self._pow_pos(self.field.p ** s)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Power-basis coordinates c_0..c_{m-1}."""
        return tuple(self.field._digits(self.v))

    def as_int(self) -> int:
        """The integer encoding sum of c_i * p^i (inverse of Field.from_int)."""
        p = self.field.p
        out = 0
        for c in reversed(self.field._digits(self.v)):
            out = out * p + c
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement) and self.v == other.v
                and (self.field is other.field or self.field == other.field))

    def __hash__(self) -> int:
        return hash(self.v)

    def __repr__(self) -> str:
        return f"{self.field}<{self.as_int()}>"


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, m: int, modulus: Optional[tuple]) -> Field:
    return Field(p, m, modulus)


def make_field(p: int, m: int, modulus: Optional[Sequence[int]] = None) -> Field:
    """Construct (or fetch the cached) GF(p^m).

    With no modulus the deterministic default is used; a supplied modulus must
    have its coefficients in 0..p-1 and be monic, degree m, and irreducible,
    otherwise the error names a factor.
    """
    key = tuple(int(c) for c in modulus) if modulus is not None else None
    return _cached_field(int(p), int(m), key)


def primitive_element(field: Field) -> FieldElement:
    """An element of full multiplicative order: root_of_unity(field, p^m - 1),
    so the modulus root x when the modulus is primitive, otherwise the
    smallest full-order encoding.  It factors p^m - 1, which nothing on the
    build, family or verify path does for a supplied modulus.
    """
    return root_of_unity(field, field.order - 1)


def root_of_unity(field: Field, n: int) -> FieldElement:
    """A deterministic element of exact multiplicative order n | p^m - 1.

    For m > 1 the modulus root x when it has order n (the usual way a worked
    construction pins down its root); otherwise y^((p^m-1)/n) for the first
    y, in the order x (m > 1), 1, 2, ... by encoding, whose power has order n
    (on every default modulus, a primitive one, y = x).  That test needs the
    primes of n only.  Two elements of order n are beta and beta^a with
    gcd(a, n) = 1, and zero set Z at beta^a is zero set aZ at beta: the codes
    are equivalent (Huffman & Pless 2003, section 4.3).
    """
    q1 = field.order - 1
    if n < 1 or q1 % n != 0:
        raise FieldError(
            f"no element of order {n} in {field}: {n} does not divide {q1}")
    ys = map(field.from_int, range(1, field.order))
    if field.m > 1:
        x = field.modulus_root()
        if _has_order(x, n):
            return x
        ys = itertools.chain([x], ys)
    for y in ys:
        r = y._pow_pos(q1 // n)
        if _has_order(r, n):
            return r
    raise FieldError(f"no element of order {n} in {field}")  # pragma: no cover


def trace(x: FieldElement, s: int = 1, terms: Optional[int] = None) -> FieldElement:
    """The sum of x^(p^(s*i)) for i < terms, by default m / s: the trace of
    x from GF(p^m) onto the degree-s subfield.

    Requires s * terms | m.  For x in GF(p^(s*terms)) it is the trace from
    that field, an element of GF(p^s) returned in the ambient field.  The
    trace from all of GF(p^m) is (m / (s*terms)) times it, which vanishes
    when p divides m / (s*terms) (n = 13, check coset {13}, host GF(27)).
    """
    m = x.field.m
    terms = m // max(s, 1) if terms is None else terms
    if s < 1 or terms < 1 or m % (s * terms) != 0:
        raise FieldError(f"s * terms = {s} * {terms} does not divide {m}")
    acc = x
    y = x
    for _ in range(terms - 1):
        y = y.frobenius(s)
        acc = acc + y
    return acc


class SubfieldEmbedding:
    """Field embedding of GF(p^s) into a host GF(p^m) with s | m.

    The image of the small field's modulus root is the smallest (by integer
    encoding) root of that modulus inside the host, so the embedding is
    deterministic.  project() inverts embed() and raises FieldError for host
    elements outside the embedded copy.
    """

    def __init__(self, host: Field, sub: Field):
        if host.p != sub.p or host.m % sub.m != 0:
            raise FieldError(f"{sub} does not embed in {host}")
        self.host = host
        self.sub = sub
        if host == sub:
            self._root_powers = None
            return
        q_sub = sub.order
        gamma = root_of_unity(host, q_sub - 1)
        candidates = [host.zero()]
        g = host.one()
        for _ in range(q_sub - 1):
            g = g * gamma
            candidates.append(g)
        mod_coeffs = [host.scalar(c) for c in sub.modulus]
        roots = []
        for c in candidates:
            acc = host.zero()
            for co in reversed(mod_coeffs):
                acc = acc * c + co
            if acc.is_zero():
                roots.append(c)
        if not roots:  # pragma: no cover - subfields always contain the roots
            raise FieldError(f"modulus of {sub} has no root in {host}")
        root = min(roots, key=lambda e: e.as_int())
        powers = [self.host.one()]
        for _ in range(sub.m - 1):
            powers.append(powers[-1] * root)
        self._root_powers = powers
        self._project = {}
        for i in range(q_sub):
            e = sub.from_int(i)
            self._project[self.embed(e)] = e

    def embed(self, e: FieldElement) -> FieldElement:
        if e.field != self.sub:
            raise FieldError(f"{e!r} is not in {self.sub}")
        if self._root_powers is None:
            return e
        acc = self.host.zero()
        for c, pw in zip(e.coeffs, self._root_powers):
            if c:
                acc = acc + pw * self.host.scalar(c)
        return acc

    def project(self, e: FieldElement) -> FieldElement:
        if e.field != self.host:
            raise FieldError(f"{e!r} is not in {self.host}")
        if self._root_powers is None:
            return e
        try:
            return self._project[e]
        except KeyError:
            raise FieldError(f"{e!r} is not in the embedded copy of {self.sub}")

    def contains(self, e: FieldElement) -> bool:
        if self._root_powers is None:
            return e.field == self.host
        return e in self._project


@functools.lru_cache(maxsize=None)
def get_embedding(host: Field, sub: Field) -> SubfieldEmbedding:
    return SubfieldEmbedding(host, sub)
