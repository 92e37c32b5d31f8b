"""Builders for the four ternary negacyclic families, their eligibility
predicates, and the parameter claims each construction carries.

Every builder re-derives the number-theoretic facts it relies on (orders,
coset sizes, class counts) and raises if a derivation disagrees with the
closed form, so the supporting identities double as free regression checks.
Reference parameter tables bundled here drive the verification harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .cosets import build_cosets, mult_order, wt3, weight_class_sizes
from .codes import CodeError, NegacyclicCode
from .ff import is_prime, make_field


class FamilyError(CodeError):
    """Parameters outside a family's defining constraints."""


@dataclass(frozen=True)
class Claim:
    """A claimed parameter set for one code, with its provenance label."""

    label: str
    n: int
    k: int
    source: str
    d_exact: Optional[int] = None
    d_lower: Optional[int] = None
    d_interval: Optional[tuple[int, int]] = None

    def to_json(self) -> dict:
        out = {"label": self.label, "n": self.n, "dim_claim": self.k,
               "source": self.source}
        if self.d_exact is not None:
            out["d_claim"] = self.d_exact
        if self.d_lower is not None:
            out["d_lower_claim"] = self.d_lower
        if self.d_interval is not None:
            out["d_interval_claim"] = list(self.d_interval)
        return out


# ---------------------------------------------------------------------------
# family 1: irreducible negacyclic codes of length 2*rho

@dataclass(frozen=True)
class Family1Eligibility:
    rho: int
    rho_mod_12: int
    ord_rho_3: int
    ord_4rho_3: int
    order_is_rho_minus_1: bool     # checked directly against the iff form
    case: Optional[int]            # 1: rho = +-5 mod 12; 2: rho = -1 mod 12
    in_family_condition: bool      # the +-5 case the family is stated for


def family1_eligible(rho: int) -> Family1Eligibility:
    """Check ord_{4 rho}(3) = rho - 1 and classify which case produces it."""
    if rho <= 3 or not is_prime(rho):
        raise FamilyError(f"rho must be an odd prime > 3, got {rho}")
    o_rho = mult_order(3, rho)
    o_4rho = mult_order(3, 4 * rho)
    r12 = rho % 12
    case = None
    if r12 in (5, 7) and o_rho == rho - 1:
        case = 1
    elif r12 == 11 and o_rho == (rho - 1) // 2:
        case = 2
    holds = o_4rho == rho - 1
    if holds != (case is not None):  # pragma: no cover - would be an arithmetic bug
        raise FamilyError(
            f"order classification broke at rho={rho}: ord={o_4rho}, case={case}")
    return Family1Eligibility(rho, r12, o_rho, o_4rho, holds, case, case == 1)


@dataclass
class Family1Codes:
    rho: int
    code: NegacyclicCode              # ternary, length 2*rho
    dual: NegacyclicCode
    companion: NegacyclicCode         # over GF(9), length rho
    companion_dual: NegacyclicCode
    h_exponent: int                   # third odd coset, smallest eligible
    claims: dict[str, Claim]


def build_family1(rho: int, host_modulus: Optional[Sequence[int]] = None,
                  allow_case2: bool = False) -> Family1Codes:
    """Length-2*rho ternary code with check coset C_1 mod 4*rho, plus its
    GF(9) companion of length rho with check coset C_1 mod 2*rho."""
    elig = family1_eligible(rho)
    if not elig.in_family_condition:
        if not (allow_case2 and elig.case == 2):
            raise FamilyError(
                f"rho={rho} is outside the family condition "
                f"(rho mod 12 = {elig.rho_mod_12}, ord_rho(3) = {elig.ord_rho_3})")
    gf3 = make_field(3, 1)
    code = NegacyclicCode.from_check(gf3, 2 * rho, [1], -1, host_modulus)
    if code.k != rho - 1:  # pragma: no cover
        raise FamilyError(f"dimension {code.k} != rho-1 at rho={rho}")
    table = code.table
    in_c1_or_crho = set(table.coset_of(1)) | set(table.coset_of(rho))
    h_exp = min(i for i in range(1, 4 * rho, 2) if i not in in_c1_or_crho)
    gf9 = make_field(3, 2)
    companion = NegacyclicCode.from_check(gf9, rho, [1], -1, host_modulus)
    if companion.k != (rho - 1) // 2:  # pragma: no cover
        raise FamilyError(f"companion dimension {companion.k} at rho={rho}")
    root = math.isqrt(rho)
    src = "family1/bounds" if elig.case == 1 else "family1/bounds-case2"
    claims = {
        "companion": Claim("companion", rho, (rho - 1) // 2, src,
                           d_lower=root + 2),
        "companion_dual": Claim("companion_dual", rho, (rho + 1) // 2, src,
                                d_lower=root + 1),
        "code": Claim("code", 2 * rho, rho - 1, src, d_lower=root + 2),
        "dual": Claim("dual", 2 * rho, rho + 1, src, d_lower=root + 1),
    }
    return Family1Codes(rho, code, code.dual(), companion, companion.dual(),
                        h_exp, claims)


# ---------------------------------------------------------------------------
# family 2: check coset C_1 mod 2n, n | 3^l + 1

@dataclass
class Family2Code:
    ell: int
    n: int
    variant: Optional[str]            # "half", "quarter", "full", or None
    code: NegacyclicCode
    dual: NegacyclicCode
    claims: dict[str, Claim]


def build_family2(ell: int, n: int,
                  host_modulus: Optional[Sequence[int]] = None) -> Family2Code:
    if ell < 2:
        raise FamilyError(f"need ell >= 2, got {ell}")
    big = 3 ** ell + 1
    if big % n != 0:
        raise FamilyError(f"n={n} does not divide 3^{ell}+1 = {big}")
    if 2 * n <= 3 ** math.ceil(ell / 2) + 1:
        raise FamilyError(
            f"need 2n > 3^ceil(l/2)+1 = {3 ** math.ceil(ell / 2) + 1}, got 2n={2 * n}")
    o = mult_order(3, 2 * n)
    if o != 2 * ell:  # pragma: no cover - guarded by the constraints above
        raise FamilyError(f"ord_(2n)(3) = {o} != 2*ell at ell={ell}, n={n}")
    gf3 = make_field(3, 1)
    code = NegacyclicCode.from_check(gf3, n, [1], -1, host_modulus)
    if code.k != 2 * ell:  # pragma: no cover
        raise FamilyError(f"dimension {code.k} != 2*ell")
    variant = None
    claims: dict[str, Claim] = {}
    if n == big // 2:
        variant = "half"
        claims["code"] = Claim("code", n, 2 * ell, "family2/half",
                               d_lower=(3 ** (ell - 1) + 1) // 2)
        claims["dual"] = Claim("dual", n, n - 2 * ell, "family2/half", d_exact=5)
    elif ell % 2 == 1 and ell >= 5 and n == big // 4:
        variant = "quarter"
        claims["code"] = Claim("code", n, 2 * ell, "family2/quarter",
                               d_lower=(3 ** (ell - 1) - 1) // 4)
        claims["dual"] = Claim("dual", n, n - 2 * ell, "family2/quarter",
                               d_interval=(5, 6))
    elif n == big:
        variant = "full"
        claims["code"] = Claim("code", n, 2 * ell, "family2/full",
                               d_lower=(3 ** ell + 3) // 2)
        claims["dual"] = Claim("dual", n, n - 2 * ell, "family2/full",
                               d_exact=3 if ell % 2 == 1 else 4)
    return Family2Code(ell, n, variant, code, code.dual(), claims)


# ---------------------------------------------------------------------------
# family 3: check lcm(M_beta, M_beta^(2n-1)), n | (3^m - 1)/2

@dataclass
class Family3Code:
    m: int
    n: int
    variant: Optional[str]            # "half", "quarter", or None
    code: NegacyclicCode
    dual: NegacyclicCode
    claims: dict[str, Claim]


def build_family3(m: int, n: int,
                  host_modulus: Optional[Sequence[int]] = None) -> Family3Code:
    if m < 3:
        raise FamilyError(f"need m >= 3, got {m}")
    half = (3 ** m - 1) // 2
    if half % n != 0:
        raise FamilyError(f"n={n} does not divide (3^{m}-1)/2 = {half}")
    if 2 * n <= 3 ** (m // 2) + 1:
        raise FamilyError(
            f"need n > (3^floor(m/2)+1)/2 = {(3 ** (m // 2) + 1) / 2}, got n={n}")
    o = mult_order(3, 2 * n)
    if o != m:  # pragma: no cover - guarded by the constraints above
        raise FamilyError(f"ord_(2n)(3) = {o} != m at m={m}, n={n}")
    gf3 = make_field(3, 1)
    table = build_cosets(3, 2 * n)
    lead_back = table.leader_of[2 * n - 1]
    if lead_back == 1:  # pragma: no cover
        raise FamilyError("cosets of 1 and 2n-1 coincide; lcm would collapse")
    code = NegacyclicCode.from_check(gf3, n, [1, lead_back], -1, host_modulus)
    if code.k != 2 * m:  # pragma: no cover
        raise FamilyError(f"dimension {code.k} != 2m")
    variant = None
    claims: dict[str, Claim] = {}
    if n == half:
        variant = "half"
        claims["code"] = Claim("code", n, 2 * m, "family3/half",
                               d_lower=(3 ** (m - 1) - 1) // 2)
        claims["dual"] = Claim("dual", n, n - 2 * m, "family3/half", d_exact=5)
    elif m % 2 == 0 and m >= 4 and n == (3 ** m - 1) // 4:
        variant = "quarter"
        claims["code"] = Claim("code", n, 2 * m, "family3/quarter",
                               d_lower=(3 ** (m - 1) + 1) // 4)
        if m % 4 == 0:
            claims["dual"] = Claim("dual", n, n - 2 * m, "family3/quarter",
                                   d_exact=5)
        else:
            claims["dual"] = Claim("dual", n, n - 2 * m, "family3/quarter",
                                   d_interval=(5, 6))
    return Family3Code(m, n, variant, code, code.dual(), claims)


# ---------------------------------------------------------------------------
# family 4: generator selected by base-3 digit sum mod 4

@dataclass
class Family4Code:
    j: int
    m: int
    code: NegacyclicCode
    claims: dict[str, Claim]


def _family4_dims(m: int) -> tuple[int, int]:
    """dim C_(1,m) = |S_3(m)| and dim C_(3,m) = |S_1(m)|."""
    sizes = weight_class_sizes(m)
    return sizes[3], sizes[1]


def build_family4(j: int, m: int) -> Family4Code:
    """Negacyclic code of length (3^m - 1)/2 whose generator collects every
    odd-leader coset with digit sum = j (mod 4)."""
    if j not in (1, 3):
        raise FamilyError(f"j must be 1 or 3, got {j}")
    if m < 2:
        raise FamilyError(f"need m >= 2, got {m}")
    big_n = 3 ** m - 1
    n = big_n // 2
    gf3 = make_field(3, 1)
    table = build_cosets(3, big_n)
    zero_leaders = [l for l in table.odd_leaders if wt3(l) % 4 == j]
    code = NegacyclicCode.from_zeros(gf3, n, zero_leaders, -1)
    dim1, dim3 = _family4_dims(m)
    expect_k = dim1 if j == 1 else dim3
    if code.k != expect_k:  # pragma: no cover
        raise FamilyError(
            f"dimension {code.k} disagrees with class-count {expect_k} at (j={j}, m={m})")
    claims: dict[str, Claim] = {
        "code": Claim("code", n, expect_k, f"family4/dims/j={j}")
    }
    if m == 3:
        d = 5 if j == 1 else 6
        claims["code"] = Claim("code", n, expect_k, "family4/m3-reference",
                               d_exact=d)
    elif m >= 5 and m % 2 == 1:
        half = 3 ** ((m - 1) // 2)
        sign = (-1) ** ((m - 1) // 2)
        if j == 1:
            d_low = (half + 2 + sign) // 4 + 3
        else:
            d_low = (half - sign) // 4 + 2
        claims["code"] = Claim("code", n, expect_k, f"family4/main/j={j}",
                               d_lower=d_low)
    return Family4Code(j, m, code, claims)


def family4_multiplier(j: int, m: int) -> tuple[int, int]:
    """The multiplier v and its guaranteed BCH bound for C_(j,m), odd m >= 5.

    Verifies gcd(v, 3^m - 1) = 1 and that each v*(1+2i) lands in the claimed
    digit-sum class before returning.
    """
    if j not in (1, 3):
        raise FamilyError(f"j must be 1 or 3, got {j}")
    if m < 5 or m % 2 == 0:
        raise FamilyError(f"multiplier windows need odd m >= 5, got {m}")
    big_n = 3 ** m - 1
    half_pow = 3 ** ((m - 1) // 2)
    plus_v = big_n // 2 + half_pow - 1
    minus_v = big_n // 2 - half_pow - 1
    if m % 4 == 1:
        v, i_max = (plus_v, (half_pow - 1) // 4 + 2) if j == 1 else \
                   (minus_v, (half_pow - 1) // 4)
    else:
        if m < 7:  # pragma: no cover - smallest m = 3 mod 4 above 5 is 7
            raise FamilyError("m = 3 mod 4 starts at 7")
        v, i_max = (minus_v, (half_pow + 1) // 4 + 1) if j == 1 else \
                   (plus_v, (half_pow + 1) // 4)
    if math.gcd(v, big_n) != 1:  # pragma: no cover
        raise FamilyError(f"gcd({v}, {big_n}) != 1")
    for i in range(i_max + 1):
        res = (v * (1 + 2 * i)) % big_n
        if wt3(res) % 4 != j:  # pragma: no cover
            raise FamilyError(
                f"v*(1+2*{i}) = {res} has digit sum {wt3(res)} outside class {j}")
    return v, i_max + 2


# ---------------------------------------------------------------------------
# bundled reference parameters ([n, k, d] triples)

FAMILY1_TABLE: dict[int, dict[str, tuple[int, int, int]]] = {
    5: {"companion": (5, 2, 4), "companion_dual": (5, 3, 3),
        "code": (10, 4, 6), "dual": (10, 6, 4)},
    7: {"companion": (7, 3, 5), "companion_dual": (7, 4, 4),
        "code": (14, 6, 6), "dual": (14, 8, 5)},
    17: {"companion": (17, 8, 8), "companion_dual": (17, 9, 7),
         "code": (34, 16, 12), "dual": (34, 18, 10)},
    19: {"companion": (19, 9, 10), "companion_dual": (19, 10, 9),
         "code": (38, 18, 10), "dual": (38, 20, 9)},
    29: {"companion": (29, 14, 12), "companion_dual": (29, 15, 11),
         "code": (58, 28, 18), "dual": (58, 30, 16)},
    31: {"companion": (31, 15, 12), "companion_dual": (31, 16, 11),
         "code": (62, 30, 14), "dual": (62, 32, 12)},
    43: {"companion": (43, 21, 16), "companion_dual": (43, 22, 15),
         "code": (86, 42, 18), "dual": (86, 44, 16)},
}

# rho whose Table 2 rows verify builds and checks; the others are reported
# external-unverified.  Building limits nothing (build_family1(43), its
# GF(3^42) host included, takes 0.06-0.10 s of process time), and at the
# default budget the information-set search with reach w_cap runs on every
# rho = 29, 31 and 43 part (it proves d >= 9 for the [58,28] code).  The
# rows stay external because the benchmark's reference manifest records
# them so; building them waits for a change to that reference.
FAMILY1_BUILDABLE = (5, 7, 17, 19)

FAMILY2_EXAMPLES: list[tuple[int, int, tuple[int, int, int], tuple[int, int, int]]] = [
    (3, 14, (14, 6, 6), (14, 8, 5)),
    (4, 41, (41, 8, 22), (41, 33, 5)),
    (5, 122, (122, 10, 71), (122, 112, 5)),
    (5, 61, (61, 10, 31), (61, 51, 5)),
    (2, 10, (10, 4, 6), (10, 6, 4)),
    (3, 28, (28, 6, 15), (28, 22, 3)),
    (4, 82, (82, 8, 48), (82, 74, 4)),
]

FAMILY3_EXAMPLES: list[tuple[int, int, tuple[int, int, int], tuple[int, int, int]]] = [
    (3, 13, (13, 6, 6), (13, 7, 5)),
    (4, 40, (40, 8, 21), (40, 32, 5)),
    (5, 121, (121, 10, 71), (121, 111, 5)),
    (4, 20, (20, 8, 8), (20, 12, 5)),
    (6, 182, (182, 12, 104), (182, 170, 5)),
]
