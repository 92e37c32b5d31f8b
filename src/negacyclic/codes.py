"""Constacyclic and negacyclic code objects over small fields.

LinearCode is the one layer for a code given by generator rows: every code
encodes, and lists its q^k words, through span_rows() and encode_rows().
A lambda-constacyclic code of length n over GF(q) is an ideal (g) of
GF(q)[x]/(x^n - lambda).  ConstacyclicCode stores its rows x^i * g once and
carries the polynomial structure (generator, check, dimension, dual, residue
decomposition for even length); NegacyclicCode specialises to lambda = -1
(and +1 for the cyclic image) and adds the zero-exponent machinery:
q-cyclotomic cosets mod 2n, BCH bounds with multipliers, the x -> -x map onto
cyclic codes, and trace-form codewords.  The trace code is linear (Delsarte),
so it is spanned from k rows: per check coset, the windows of the sequence
Tr(theta^t).

Code objects are immutable after construction; the distance engines only
read them.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .cosets import CosetTable, build_cosets, mult_order
from .ff import (Field, FieldElement, FieldTables, get_embedding, make_field,
                 root_of_unity, trace)
from .poly import Poly, minimal_polynomial


class CodeError(ValueError):
    """Invalid code construction or operation."""


# ---------------------------------------------------------------------------
# matrix helpers over field-index arrays

def rref(tables: FieldTables, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over the field; returns (R, pivot columns)."""
    M = np.array(mat, dtype=tables.dtype, copy=True)
    if M.size == 0:
        return M, []
    rows, cols = M.shape
    add, neg, mul, inv = tables.add, tables.neg, tables.mul, tables.inv
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(M[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = mul[inv[M[r, c]]][M[r]]
        col = M[:, c].copy()
        col[r] = 0
        live = np.nonzero(col)[0]
        if live.size:
            M[live] = add[M[live], mul[neg[col[live]][:, None], M[r][None, :]]]
        pivots.append(c)
        r += 1
    # drop all-zero rows
    nz = np.any(M != 0, axis=1)
    return M[nz], pivots


def mat_mul(tables: FieldTables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field (index arrays)."""
    add, mul = tables.add, tables.mul
    out = np.zeros((a.shape[0], b.shape[1]), dtype=tables.dtype)
    for k in range(a.shape[1]):
        out = add[out, mul[a[:, k][:, None], b[k][None, :]]]
    return out


def nullspace(tables: FieldTables, mat: np.ndarray, n: int) -> np.ndarray:
    """Basis of the right null space of mat (rows of the result)."""
    R, pivots = rref(tables, mat)
    free = [c for c in range(n) if c not in pivots]
    neg = tables.neg
    out = np.zeros((len(free), n), dtype=tables.dtype)
    for row_i, f in enumerate(free):
        out[row_i, f] = 1
        for pr, pc in enumerate(pivots):
            out[row_i, pc] = neg[R[pr, f]]
    return out


def span_rows(tables: FieldTables, rows: np.ndarray) -> np.ndarray:
    """All q^k words of a k x n row matrix, one per message: word j is
    sum_r ((j // q^r) % q) * rows[r], so row r is base-q digit r of j."""
    words = np.zeros((1, rows.shape[1]), dtype=tables.dtype)
    for row in rows:
        words = np.concatenate(
            [tables.add[words, tables.mul[v][row][None, :]]
             for v in range(tables.q)], axis=0)
    return words


def encode_rows(tables: FieldTables, rows: np.ndarray, message) -> np.ndarray:
    """The word sum_r message[r] * rows[r] (message entries reduced mod q)."""
    word = np.zeros(rows.shape[1], dtype=tables.dtype)
    for m, row in zip(message, rows):
        word = tables.add[word, tables.mul[int(m) % tables.q][row]]
    return word


class LinearCode:
    """A linear code given by its k x n generator rows, stored read-only;
    message j is encoded as in span_rows()."""

    def __init__(self, field: Field, gen_rows: np.ndarray):
        self.field = field
        self._rows = np.array(gen_rows, dtype=field.tables().dtype)
        self._rows.flags.writeable = False
        self.k, self.n = self._rows.shape

    def rows(self) -> np.ndarray:
        return self._rows

    def dual_rows(self) -> np.ndarray:
        return nullspace(self.field.tables(), self._rows, self.n)

    def contains(self, word) -> bool:
        """word (entries reduced mod q) is a codeword; False for any length
        but n."""
        t = self.field.tables()
        w = np.asarray(word, dtype=t.dtype).reshape(-1, 1)
        return len(w) == self.n and not mat_mul(t, self.dual_rows(), w).any()

    def encode(self, message: Sequence[int]) -> np.ndarray:
        if len(message) != self.k:
            raise CodeError(f"message length {len(message)} != dimension {self.k}")
        return encode_rows(self.field.tables(), self._rows, message)

    def codewords(self) -> np.ndarray:
        """All q^k words in message order; only sensible at small dimensions."""
        return span_rows(self.field.tables(), self._rows)

    def __repr__(self) -> str:
        return f"[{self.n},{self.k}] code over {self.field}"


class ConstacyclicCode(LinearCode):
    """lambda-constacyclic code: the ideal (g) of GF(q)[x]/(x^n - lambda).

    Its generator rows are x^i * g for 0 <= i < k (no reduction needed),
    computed once; membership is tested by division by g.
    """

    def __init__(self, field: Field, n: int, lam: FieldElement, g: Poly):
        if lam.is_zero():
            raise CodeError("lambda must be a unit")
        if g.field != field:
            raise CodeError("generator not over the code's field")
        self.lam = lam
        g = g.monic() if not g.is_zero() else Poly.x_pow_minus(field, n, lam).monic()
        self.modulus_poly = Poly.x_pow_minus(field, n, lam)
        quot, rem = divmod(self.modulus_poly, g)
        if not rem.is_zero():
            raise CodeError(
                f"generator {g.to_text()} does not divide x^{n} - lambda "
                f"(remainder {rem.to_text()})")
        self.g = g
        self.h = quot.monic()
        rows = np.zeros((n - int(g.degree), n), dtype=field.tables().dtype)
        for i in range(rows.shape[0]):
            rows[i, i:i + len(g.idx)] = g.idx
        super().__init__(field, rows)

    # -- vector-side helpers -------------------------------------------------

    def dual_rows(self) -> np.ndarray:
        # the base dual is built from reciprocal(h) alone; NegacyclicCode.dual
        # also rebuilds the dual's zero set and minimal polynomials
        return ConstacyclicCode.dual(self).rows()

    def contains(self, word: Sequence[int]) -> bool:
        return (len(word) == self.n
                and (Poly.from_ints(self.field, word) % self.g).is_zero())

    # -- structure ------------------------------------------------------------

    def dual(self) -> "ConstacyclicCode":
        """The dual: lambda^{-1}-constacyclic, generated by reciprocal(h)."""
        return ConstacyclicCode(
            self.field, self.n, self.lam.inverse(), self.h.reciprocal())

    def residue_decompose(self):
        """Split an even-length negacyclic code over GF(q), q = 1 mod 4, into
        its two half-length constacyclic residue codes.

        Returns (res_minus, res_plus, lam_sqrt): res_minus is (-lam_sqrt)-
        constacyclic with generator gcd(g, x^{n/2} + lam_sqrt); res_plus is
        lam_sqrt-constacyclic with generator gcd(g, x^{n/2} - lam_sqrt).
        """
        if not (-self.lam).is_one():
            raise CodeError("residue decomposition applies to negacyclic codes")
        if self.n % 2 != 0:
            raise CodeError("residue decomposition needs even length")
        if (self.field.order - 1) % 4 != 0:
            raise CodeError(
                f"no square root of -1 in {self.field}: order is not 1 mod 4")
        lam_sqrt = None
        for e in self.field.elements():
            if not e.is_zero() and (e * e + self.field.one()).is_zero():
                lam_sqrt = e
                break
        half = self.n // 2
        x_plus = Poly.x_pow_minus(self.field, half, -lam_sqrt)   # x^{n/2} + lam
        x_minus = Poly.x_pow_minus(self.field, half, lam_sqrt)   # x^{n/2} - lam
        res_minus = ConstacyclicCode(self.field, half, -lam_sqrt,
                                     self.g.gcd(x_plus))
        res_plus = ConstacyclicCode(self.field, half, lam_sqrt,
                                    self.g.gcd(x_minus))
        return res_minus, res_plus, lam_sqrt

    def residue_recombine(self, lam_sqrt: FieldElement,
                          w1: Sequence[int], w2: Sequence[int]) -> np.ndarray:
        """e1*c1 + e2*c2 mod x^n + 1 for residue words c1, c2."""
        half = self.n // 2
        f = self.field
        two_inv = (f.one() + f.one()).inverse()
        c1 = Poly.from_ints(f, w1)
        c2 = Poly.from_ints(f, w2)
        e1 = Poly.x_pow_minus(f, half, lam_sqrt).scale(lam_sqrt * two_inv)
        e2 = Poly.x_pow_minus(f, half, -lam_sqrt).scale(-(lam_sqrt * two_inv))
        w = (e1 * c1 + e2 * c2) % self.modulus_poly
        out = np.zeros(self.n, dtype=self.field.tables().dtype)
        out[:len(w.idx)] = w.idx
        return out

    def descriptor(self) -> dict:
        d = {
            "q": self.field.order,
            "n": self.n,
            "lambda": _lambda_json(self.field, self.lam),
            "g": self.g.to_text(),
            "k": self.k,
        }
        if self.field.m > 1:
            d["base_field"] = self.field.descriptor()
        return d


class DescriptorError(CodeError):
    """A code descriptor field that does not hold the integers it should."""


def _descriptor_int(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise DescriptorError(f"field {name!r} must hold integers, "
                              f"got {value!r}") from None


def _lambda_json(field: Field, lam: FieldElement):
    if lam.is_one():
        return 1
    if (-lam).is_one():
        return -1
    return lam.as_int()


def uv_construct(c1, c2) -> LinearCode:
    """The (u+v | u-v) combination of two equal-length codes over one field."""
    if c1.field != c2.field:
        raise CodeError("u+v|u-v needs a common field")
    if c1.n != c2.n:
        raise CodeError(f"length mismatch: {c1.n} vs {c2.n}")
    if c1.field.p == 2:
        raise CodeError("u+v|u-v needs odd characteristic")
    t = c1.field.tables()
    r1, r2 = c1.rows(), c2.rows()
    top = np.concatenate([r1, r1], axis=1)
    bot = np.concatenate([r2, t.neg[r2]], axis=1)
    return LinearCode(c1.field, np.concatenate([top, bot], axis=0))


def residue_distance_relation(d1: Optional[int], d2: Optional[int]):
    """Distance of the recombined code from its residue distances.

    Follows the even-length splitting rule: a zero residue doubles the
    other side; otherwise 2*min is exact when 2*min <= max, and only the
    interval [max, 2*min] is determined when 2*min > max.
    """
    if d1 is None and d2 is None:
        raise CodeError("both residues are zero codes")
    if d2 is None:
        return ("exact", 2 * d1)
    if d1 is None:
        return ("exact", 2 * d2)
    lo, hi = min(d1, d2), max(d1, d2)
    if 2 * lo <= hi:
        return ("exact", 2 * lo)
    return ("interval", hi, 2 * lo)


@functools.lru_cache(maxsize=None)
def _code_context(field: Field, n: int, lam_int: int,
                  host_modulus: Optional[tuple[int, ...]]):
    if lam_int not in (-1, 1):
        raise CodeError("lam_int must be -1 (negacyclic) or +1 (cyclic)")
    if n < 1:
        raise CodeError("length must be positive")
    q0 = field.order
    R = 2 * n if lam_int == -1 else n
    if math.gcd(R, field.p) != 1:
        raise CodeError(f"need gcd({R}, {field.p}) = 1 for semisimple structure")
    table = build_cosets(q0, R)
    mh = mult_order(q0, R)
    if mh == 1 and host_modulus is None:
        host = field
    else:
        host = make_field(field.p, field.m * mh, host_modulus)
    beta = root_of_unity(host, R)
    return table, host, beta


class NegacyclicCode(ConstacyclicCode):
    """Negacyclic (lambda = -1) or cyclic (lambda = +1) code with its zero set.

    Zeros are beta^i for i in zero_exponents, where beta is a fixed primitive
    R-th root of unity in the host field (R = 2n with odd exponents for
    negacyclic codes, R = n with arbitrary exponents for cyclic ones).
    Zero-exponent sets make codes comparable without fixing beta across hosts.
    """

    def __init__(self, field: Field, n: int, lam_int: int, g: Poly,
                 host: Field, beta: FieldElement, table: CosetTable,
                 zero_exponents: frozenset[int]):
        lam = field.one() if lam_int == 1 else -field.one()
        super().__init__(field, n, lam, g)
        self.lam_int = lam_int
        self.R = table.N
        self.host = host
        self.beta = beta
        self.table = table
        self.zero_exponents = zero_exponents
        self._zero_mask = np.zeros(self.R, dtype=bool)
        if zero_exponents:
            self._zero_mask[sorted(zero_exponents)] = True
        elig = self._eligible()
        self.zero_leaders = tuple(sorted(
            {table.leader_of[i] for i in zero_exponents}))
        self.check_leaders = tuple(sorted(
            {table.leader_of[i] for i in elig if i not in zero_exponents}))

    def _eligible(self) -> range:
        return range(1, self.R, 2) if self.lam_int == -1 else range(self.R)

    # -- construction ----------------------------------------------------------

    @staticmethod
    def _context(field: Field, n: int, lam_int: int,
                 host_modulus: Optional[Sequence[int]] = None):
        """(coset table, host field, beta) for (field, n, lambda), built once
        per process and shared by every code over it; all three are
        immutable.  The host is GF(p^(m * ord_R(q))), with the given modulus
        if any (the base field itself when that order is 1 and none is
        given)."""
        key = tuple(int(c) for c in host_modulus) if host_modulus is not None else None
        return _code_context(field, n, lam_int, key)

    @staticmethod
    def _coset_leaders(table: CosetTable, exponents: Iterable[int],
                       lam_int: int) -> list[int]:
        """Canonical leaders of the cosets of the given exponents, which must
        be eligible for lambda (odd for negacyclic codes) and lie in distinct
        cosets."""
        R = table.N
        leaders = []
        for l in exponents:
            l = l % R
            if lam_int == -1 and l % 2 == 0:
                raise CodeError(f"exponent {l} not eligible for lambda={lam_int}")
            can = table.leader_of[l]
            if can in leaders:
                raise CodeError(f"cosets overlap at leader {can}")
            leaders.append(can)
        return leaders

    @classmethod
    def from_zeros(cls, field: Field, n: int, zero_leaders: Iterable[int],
                   lam_int: int = -1,
                   host_modulus: Optional[Sequence[int]] = None
                   ) -> "NegacyclicCode":
        table, host, beta = cls._context(field, n, lam_int, host_modulus)
        g = Poly.one(field)
        T = set()
        for l in cls._coset_leaders(table, zero_leaders, lam_int):
            g = g * minimal_polynomial(beta, l, field)
            T.update(table.cosets[l])
        return cls(field, n, lam_int, g, host, beta, table, frozenset(T))

    @classmethod
    def from_check(cls, field: Field, n: int, check_leaders: Iterable[int],
                   lam_int: int = -1,
                   host_modulus: Optional[Sequence[int]] = None
                   ) -> "NegacyclicCode":
        """Code whose check polynomial is the product of the given cosets'
        minimal polynomials; its zeros are every other eligible exponent."""
        table = cls._context(field, n, lam_int, host_modulus)[0]
        checks = set(cls._coset_leaders(table, check_leaders, lam_int))
        eligible = table.odd_leaders if lam_int == -1 else table.leaders
        zero_leaders = [l for l in eligible if l not in checks]
        return cls.from_zeros(field, n, zero_leaders, lam_int, host_modulus)

    @classmethod
    def from_generator(cls, field: Field, n: int, g: Poly, lam_int: int = -1,
                       host_modulus: Optional[Sequence[int]] = None
                       ) -> "NegacyclicCode":
        table, host, beta = cls._context(field, n, lam_int, host_modulus)
        if g.is_zero():
            raise CodeError("generator must be nonzero")
        # divisibility of x^n - lambda is checked by ConstacyclicCode
        T = set()
        for l in table.odd_leaders if lam_int == -1 else table.leaders:
            if g(beta ** l).is_zero():
                T.update(table.cosets[l])
        return cls(field, n, lam_int, g, host, beta, table, frozenset(T))

    @classmethod
    def from_descriptor(cls, desc: dict) -> "NegacyclicCode":
        """The code a descriptor names; a field that should hold integers
        and does not raises DescriptorError, which names the field."""
        def ints(name: str, text: str) -> list[int]:
            return [_descriptor_int(name, c) for c in text.split(",")]

        q = _descriptor_int("q", desc["q"])
        bf = desc.get("base_field")
        if bf is not None:
            field = make_field(_descriptor_int("base_field.p", bf["p"]),
                               _descriptor_int("base_field.m", bf["m"]),
                               ints("base_field.modulus", bf["modulus"]))
        else:
            field = make_field(q, 1)
        host_modulus = None
        if "host_field" in desc:
            host_modulus = ints("host_field.modulus",
                                desc["host_field"]["modulus"])
        if field.order != q:
            raise CodeError(f"descriptor q = {q} disagrees with its base field "
                            f"{field}")
        g = Poly.from_indices(field, ints("g", desc["g"]))
        code = cls.from_generator(field, _descriptor_int("n", desc["n"]), g,
                                  _descriptor_int("lambda", desc["lambda"]),
                                  host_modulus)
        if "k" in desc and _descriptor_int("k", desc["k"]) != code.k:
            raise CodeError(f"descriptor k = {desc['k']} disagrees with the "
                            f"generator's dimension {code.k}")
        if ("zero_leaders" in desc
                and sorted(_descriptor_int("zero_leaders", l)
                           for l in desc["zero_leaders"])
                != list(code.zero_leaders)):
            raise CodeError(f"descriptor zero_leaders = {desc['zero_leaders']} "
                            f"disagree with the generator's "
                            f"{list(code.zero_leaders)}")
        return code

    # -- zero-set structure ------------------------------------------------------

    def dual(self) -> "NegacyclicCode":
        """Dual code: generated by the monic reciprocal of h, with zeros the
        negations of this code's nonzeros (a union of cosets), over the same
        host, beta and coset table; no minimal polynomial is rebuilt."""
        R = self.R
        dual_T = frozenset((R - i) % R for i in self._eligible()
                           if i not in self.zero_exponents)
        return NegacyclicCode(self.field, self.n, self.lam_int,
                              self.h.reciprocal(), self.host, self.beta,
                              self.table, dual_T)

    def bch_bound(self, v: int = 1) -> int:
        """Longest run of consecutive zeros seen through the multiplier v.

        For negacyclic codes the run walks odd exponents v*(1+2i) mod 2n; a
        run of length r certifies distance >= r+1 because beta^v is again a
        primitive 2n-th root with (beta^v)^n = -1.
        """
        if math.gcd(v, self.R) != 1:
            raise CodeError(f"multiplier {v} shares a factor with {self.R}")
        return int(self._bch_bounds([v])[0])

    def _bch_bounds(self, vs: Sequence[int]) -> np.ndarray:
        """bch_bound(v) for every multiplier v in vs, in one numpy pass."""
        n = self.n
        steps = 1 + 2 * np.arange(n) if self.lam_int == -1 else np.arange(n)
        member = self._zero_mask[np.outer(vs, steps) % self.R]
        # the longest circular run of zeros in a row is the longest run in
        # the row written twice: at each position, the distance back to the
        # last non-zero (2n for a row of zeros only, capped to n below)
        twice = np.concatenate([member, member], axis=1)
        pos = np.arange(2 * n)
        last = np.maximum.accumulate(np.where(twice, -1, pos), axis=1)
        return np.minimum((pos - last).max(axis=1), n - 1) + 1

    def best_bch_multiplier(self) -> tuple[int, int]:
        """The smallest multiplier v with the largest bch_bound(v).

        v and q*v give identical bounds, so v runs over the units among the
        coset leaders (each coset's smallest member), in one pass of
        _bch_bounds; leader 0 is a unit only mod R = 1, where v = 1 names it.
        """
        vs = [l or 1 for l in self.table.leaders if math.gcd(l, self.R) == 1]
        bounds = self._bch_bounds(vs)
        i = int(np.argmax(bounds))
        return vs[i], int(bounds[i])

    def psi_image(self) -> "NegacyclicCode":
        """The x -> -x image: a cyclic code for odd n, weight-preserving."""
        if self.n % 2 == 0:
            raise CodeError(
                "the x -> -x map between negacyclic and cyclic codes needs odd length")
        g_img = self.g.substitute_neg_x().monic()
        return NegacyclicCode.from_generator(self.field, self.n, g_img,
                                             -self.lam_int)

    # -- trace-form codewords ------------------------------------------------------

    def _trace_row(self, a: FieldElement, leader: int, length: int) -> np.ndarray:
        """Base-field indices of Tr(a * theta^t) for t < length, where
        theta = beta^(R - leader) and Tr runs down from GF(q0^m), m the size
        of the check coset of leader."""
        m = len(self.table.cosets[leader])
        theta = self.beta ** ((self.R - leader) % self.R)
        proj = get_embedding(self.host, self.field)
        out = np.zeros(length, dtype=self.field.tables().dtype)
        cur = a
        for t in range(length):
            out[t] = proj.project(trace(cur, self.field.m, m)).as_int()
            cur = cur * theta
        return out

    def trace_code_set(self) -> set[tuple[int, ...]]:
        """All q^k trace-form words, as a set of index tuples.

        The trace code is linear, so it is the span of k rows: for a check
        coset of size m and theta = beta^(R - leader), the words of
        a = 1, theta, ..., theta^(m-1) (a GF(q0)-basis of GF(q0^m), as theta
        has degree m) are the m length-n windows of s_t = Tr(theta^t),
        t < n + m - 1.
        """
        rows = []
        for leader in self.check_leaders:
            m = len(self.table.cosets[leader])
            s = self._trace_row(self.host.one(), leader, self.n + m - 1)
            rows.extend(s[i:i + self.n] for i in range(m))
        rows = np.array(rows, dtype=self.field.tables().dtype).reshape(-1, self.n)
        return set(map(tuple, span_rows(self.field.tables(), rows).tolist()))

    def descriptor(self) -> dict:
        d = super().descriptor()
        d["lambda"] = self.lam_int
        d["zero_leaders"] = list(self.zero_leaders)
        d["host_field"] = self.host.descriptor()
        return d
