"""Dense univariate polynomials over a Field, plus minimal polynomials
assembled from Frobenius-closed exponent cosets.

Poly values are immutable; every operation returns a fresh value, so they are
safe to share between threads.  The zero polynomial is the empty coefficient
tuple and reports degree -inf (a float sentinel, never -1 arithmetic).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .ff import Field, FieldElement, FieldError, SubfieldEmbedding, get_embedding

NEG_INF = float("-inf")


class PolyError(ValueError):
    """Invalid polynomial operation."""


class Poly:
    """Polynomial with ascending coefficients over a fixed Field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, [field.one()])

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, [field.zero(), field.one()])

    @classmethod
    def from_ints(cls, field: Field, ints: Sequence[int]) -> "Poly":
        return cls(field, [field.from_int(i % field.order) for i in ints])

    @classmethod
    def from_scalars(cls, field: Field, scalars: Sequence[int]) -> "Poly":
        """Coefficients given as prime-subfield scalars."""
        return cls(field, [field.scalar(c) for c in scalars])

    @classmethod
    def from_text(cls, field: Field, text: str) -> "Poly":
        if text.strip() == "":
            return cls.zero(field)
        return cls.from_ints(field, [int(c) for c in text.split(",")])

    @classmethod
    def x_pow_minus(cls, field: Field, n: int, lam: FieldElement) -> "Poly":
        """x^n - lam."""
        coeffs = [-lam] + [field.zero()] * (n - 1) + [field.one()]
        return cls(field, coeffs)

    # -- basics -----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise PolyError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> FieldElement:
        return self.coeffs[0] if self.coeffs else self.field.zero()

    def monic(self) -> "Poly":
        if self.is_zero() or self.leading().is_one():
            return self
        inv = self.leading().inverse()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise PolyError(f"mixed coefficient fields: {self.field} vs {other.field}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        f = self.field
        if f.m == 1:
            # prime field: integer convolution then reduce
            a = np.array([c.coeffs[0] for c in self.coeffs], dtype=np.int64)
            b = np.array([c.coeffs[0] for c in other.coeffs], dtype=np.int64)
            conv = np.convolve(a, b) % f.p
            return Poly.from_scalars(f, conv.tolist())
        out = [f.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Poly(f, out)

    def scale(self, c: FieldElement) -> "Poly":
        return Poly(self.field, [a * c for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise PolyError("division by the zero polynomial")
        f = self.field
        if f.m == 1:
            return self._divmod_prime(other)
        r = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead_inv = other.leading().inverse()
        q = [f.zero()] * max(len(r) - d, 0)
        while len(r) - 1 >= d and r:
            c = r[-1] * lead_inv
            shift = len(r) - 1 - d
            q[shift] = c
            for j in range(d + 1):
                r[shift + j] = r[shift + j] - c * other.coeffs[j]
            while r and r[-1].is_zero():
                r.pop()
        return Poly(f, q), Poly(f, r)

    def _divmod_prime(self, other: "Poly") -> tuple["Poly", "Poly"]:
        f = self.field
        p = f.p
        r = np.array([c.coeffs[0] for c in self.coeffs], dtype=np.int64)
        g = np.array([c.coeffs[0] for c in other.coeffs], dtype=np.int64)
        d = len(g) - 1
        lead_inv = pow(int(g[-1]), p - 2, p)
        n_q = max(len(r) - d, 0)
        q = np.zeros(n_q, dtype=np.int64)
        top = len(r) - 1
        while top >= d:
            c = (r[top] * lead_inv) % p
            if c:
                shift = top - d
                q[shift] = c
                r[shift:top + 1] = (r[shift:top + 1] - c * g) % p
            top -= 1
        return Poly.from_scalars(f, q.tolist()), Poly.from_scalars(f, r.tolist())

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

    def lcm(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        return ((self * other) // self.gcd(other)).monic()

    def __call__(self, point: FieldElement,
                 embedding: Optional[SubfieldEmbedding] = None) -> FieldElement:
        """Evaluate at a point; pass an embedding to evaluate in a host field."""
        if embedding is None and point.field != self.field:
            embedding = get_embedding(point.field, self.field)
        acc = point.field.zero()
        for c in reversed(self.coeffs):
            ce = embedding.embed(c) if embedding is not None else c
            acc = acc * point + ce
        return acc

    def reciprocal(self) -> "Poly":
        """f0^-1 * x^deg(f) * f(1/x); requires f(0) != 0."""
        if self.is_zero() or self.constant().is_zero():
            raise PolyError("reciprocal requires a nonzero constant term")
        inv = self.constant().inverse()
        return Poly(self.field, [c * inv for c in reversed(self.coeffs)])

    def substitute_neg_x(self) -> "Poly":
        """f(-x)."""
        out = []
        for i, c in enumerate(self.coeffs):
            out.append(c if i % 2 == 0 else -c)
        return Poly(self.field, out)

    # -- conversions --------------------------------------------------------

    def to_ints(self) -> list[int]:
        return [c.as_int() for c in self.coeffs]

    def to_text(self) -> str:
        return ",".join(str(i) for i in self.to_ints())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly<0>"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            v = c.as_int()
            if i == 0:
                terms.append(str(v))
            else:
                head = "" if v == 1 else f"{v}*"
                terms.append(f"{head}x^{i}" if i > 1 else f"{head}x")
        return "Poly<" + " + ".join(terms) + ">"


def minimal_polynomial(beta: FieldElement, coset: Sequence[int],
                       base: Field) -> Poly:
    """Minimal polynomial over `base` of beta^i for the given exponent coset.

    `coset` must be the full orbit of its members under multiplication by
    |base| modulo ord(beta); the product of (x - beta^j) over the coset then
    has coefficients in the embedded copy of `base`, and is returned as a
    monic irreducible Poly over `base`.
    """
    host = beta.field
    emb = get_embedding(host, base)
    n_ord = beta.order()
    q0 = base.order
    cs = sorted(set(j % n_ord for j in coset))
    closed = sorted(set((j * q0) % n_ord for j in cs))
    if closed != cs:
        raise PolyError(
            f"exponent set {cs} is not closed under multiplication by {q0} mod {n_ord}")
    prod = [host.one()]
    for j in cs:
        root = beta ** j
        nxt = [host.zero()] * (len(prod) + 1)
        for i, c in enumerate(prod):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * root
        prod = nxt
    out = []
    for c in prod:
        try:
            out.append(emb.project(c))
        except FieldError:
            raise PolyError(
                f"coefficient {c!r} lies outside {base}; exponent set not Frobenius-closed")
    return Poly(base, out)
