"""Dense univariate polynomials over a code field, plus the minimal
polynomial of a power beta^l: the product of x - r over its Frobenius
conjugates r, worked out from beta and l alone.

A Poly stores its ascending coefficients as element indices (index i <->
field.from_int(i)), the encoding code words and generator rows use, and runs
every operation as row lookups in the field's FieldTables: one path for every
field, prime or not.  So a Poly needs the field's index tables (order <=
Field.TABLE_CAP); only evaluation at a point runs FieldElement arithmetic,
in the point's field.

Poly values are immutable (the index array is read-only); every operation
returns a fresh value, so they are safe to share between threads.  The zero
polynomial has no coefficients and reports degree -inf (a float sentinel,
never -1 arithmetic).
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .ff import Field, FieldElement, get_embedding

NEG_INF = float("-inf")


class PolyError(ValueError):
    """Invalid polynomial operation."""


class Poly:
    """Polynomial with ascending coefficients over a fixed Field; `idx` holds
    their element indices, with no trailing zero."""

    __slots__ = ("field", "idx")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement]):
        self._set(field, [c.as_int() for c in coeffs])

    def _set(self, field: Field, idx) -> None:
        a = np.asarray(idx, dtype=field.tables().dtype).reshape(-1)
        nz = np.flatnonzero(a)
        a = a[:nz[-1] + 1] if nz.size else a[:0]
        a.flags.writeable = False
        self.field = field
        self.idx = a

    @classmethod
    def _of(cls, field: Field, idx) -> "Poly":
        """The polynomial with coefficient indices idx (trailing zeros dropped)."""
        out = cls.__new__(cls)
        out._set(field, idx)
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls._of(field, [])

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls._of(field, [1])

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls._of(field, [0, 1])

    @classmethod
    def from_ints(cls, field: Field, ints: Sequence[int]) -> "Poly":
        return cls._of(field, np.asarray(ints, dtype=np.int64) % field.order)

    @classmethod
    def from_scalars(cls, field: Field, scalars: Sequence[int]) -> "Poly":
        """Coefficients given as prime-subfield scalars (scalar c has index c)."""
        return cls._of(field, np.asarray(scalars, dtype=np.int64) % field.p)

    @classmethod
    def from_indices(cls, field: Field, ints: Sequence[int]) -> "Poly":
        """Ascending element indices, each in 0..q-1 (the inverse of
        to_ints); unlike from_ints, an index outside that range is refused."""
        if not all(0 <= c < field.order for c in ints):
            raise PolyError(f"polynomial {','.join(map(str, ints))} has a "
                            f"coefficient outside 0..{field.order - 1}")
        return cls.from_ints(field, ints)

    @classmethod
    def x_pow_minus(cls, field: Field, n: int, lam: FieldElement) -> "Poly":
        """x^n - lam."""
        t = field.tables()
        a = np.zeros(n + 1, dtype=t.dtype)
        a[0] = t.neg[lam.as_int()]
        a[n] = 1
        return cls._of(field, a)

    # -- basics -----------------------------------------------------------

    @property
    def degree(self):
        return len(self.idx) - 1 if len(self.idx) else NEG_INF

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(self.field.from_int(int(i)) for i in self.idx)

    def is_zero(self) -> bool:
        return not len(self.idx)

    def monic(self) -> "Poly":
        if self.is_zero() or self.idx[-1] == 1:
            return self
        t = self.field.tables()
        return Poly._of(self.field, t.mul[t.inv[self.idx[-1]], self.idx])

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise PolyError(f"mixed coefficient fields: {self.field} vs {other.field}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.idx, other.idx
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[:len(b)] = self.field.tables().add[a[:len(b)], b]
        return Poly._of(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._of(self.field, self.field.tables().neg[self.idx])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        t = self.field.tables()
        a, b = self.idx, other.idx
        if len(a) > len(b):
            a, b = b, a
        if not len(a):
            return Poly.zero(self.field)
        out = np.zeros(len(a) + len(b) - 1, dtype=t.dtype)
        for i, c in enumerate(a.tolist()):
            if c:
                out[i:i + len(b)] = t.add[out[i:i + len(b)], t.mul[c, b]]
        return Poly._of(self.field, out)

    def scale(self, c: FieldElement) -> "Poly":
        if c.field != self.field:
            raise PolyError(f"scalar {c!r} is not in {self.field}")
        return Poly._of(self.field, self.field.tables().mul[c.as_int(), self.idx])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise PolyError("division by the zero polynomial")
        t = self.field.tables()
        d = len(other.idx) - 1
        lead_inv = t.inv[other.idx[-1]]
        step = t.mul[t.neg[lead_inv], other.idx]   # -g / lead(g)
        r = self.idx.copy()
        q = np.zeros(max(len(r) - d, 0), dtype=t.dtype)
        for top in range(len(r) - 1, d - 1, -1):
            c = r[top]
            if c:
                # adding c * step clears r[top]
                q[top - d] = t.mul[c, lead_inv]
                r[top - d:top + 1] = t.add[r[top - d:top + 1], t.mul[c, step]]
        return Poly._of(self.field, q), Poly._of(self.field, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __call__(self, point: FieldElement) -> FieldElement:
        """Evaluate at a point of the code field or of a host field."""
        coeffs = self.coeffs
        if point.field != self.field:
            coeffs = tuple(map(get_embedding(point.field, self.field).embed, coeffs))
        acc = point.field.zero()
        for c in reversed(coeffs):
            acc = acc * point + c
        return acc

    def reciprocal(self) -> "Poly":
        """f0^-1 * x^deg(f) * f(1/x); requires f(0) != 0."""
        if self.is_zero() or self.idx[0] == 0:
            raise PolyError("reciprocal requires a nonzero constant term")
        t = self.field.tables()
        return Poly._of(self.field, t.mul[t.inv[self.idx[0]], self.idx[::-1]])

    def substitute_neg_x(self) -> "Poly":
        """f(-x)."""
        out = self.idx.copy()
        out[1::2] = self.field.tables().neg[out[1::2]]
        return Poly._of(self.field, out)

    # -- conversions --------------------------------------------------------

    def to_ints(self) -> list[int]:
        return self.idx.tolist()

    def to_text(self) -> str:
        return ",".join(str(i) for i in self.to_ints())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and np.array_equal(self.idx, other.idx))

    def __hash__(self) -> int:
        return hash((self.field, tuple(self.to_ints())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly<0>"
        terms = []
        for i, v in enumerate(self.to_ints()):
            if v == 0:
                continue
            if i == 0:
                terms.append(str(v))
            else:
                head = "" if v == 1 else f"{v}*"
                terms.append(f"{head}x^{i}" if i > 1 else f"{head}x")
        return "Poly<" + " + ".join(terms) + ">"


@functools.lru_cache(maxsize=None)
def minimal_polynomial(beta: FieldElement, l: int, base: Field) -> Poly:
    """Minimal polynomial of beta^l over `base`, a monic irreducible Poly.

    It is the product of (x - r) over the Frobenius conjugates r = beta^l,
    r^|base|, r^(|base|^2), ... of beta^l, up to the first that repeats
    (MacWilliams & Sloane 1977, ch. 4): the roots are beta^j for j in the
    |base|-cyclotomic coset of l, and the coefficients lie in the embedded
    copy of `base`, onto which they are projected.

    Each (beta, l, base) is computed once per process and the same immutable
    Poly is returned after that.  The key holds beta itself, not beta.v:
    FieldElement hashes its packed value alone and compares fields only in
    __eq__.  The base is part of the key because one host serves several
    bases (GF(3^18) over GF(3) and GF(9)).
    """
    host = beta.field
    roots = [beta ** l]
    while (r := roots[-1].frobenius(base.m)) != roots[0]:
        roots.append(r)
    prod = [host.one()]
    for root in roots:
        nxt = [host.zero()] * (len(prod) + 1)
        for i, c in enumerate(prod):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * root
        prod = nxt
    emb = get_embedding(host, base)
    return Poly._of(base, [emb.project(c).as_int() for c in prod])
