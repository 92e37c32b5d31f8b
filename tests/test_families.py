import json

import pytest

from negacyclic.cosets import build_cosets, mult_order, weight_class_sizes, wt3
from negacyclic.distance import distance_report, low_weight_search
from negacyclic.families import (FAMILY1_TABLE, FAMILY2_EXAMPLES,
                                 FAMILY3_EXAMPLES, FamilyError, build_family1,
                                 build_family2, build_family3, build_family4,
                                 family1_eligible, family4_multiplier)
from negacyclic import ff
from negacyclic.cli import main
from negacyclic.codes import NegacyclicCode
from negacyclic.ff import get_embedding, make_field, root_of_unity


# -- family 1 ----------------------------------------------------------------

def test_family1_eligibility_rho5():
    e = family1_eligible(5)
    assert e.case == 1 and e.in_family_condition
    assert e.ord_rho_3 == 4 and e.ord_4rho_3 == 4


def test_family1_eligibility_rho13_fails():
    e = family1_eligible(13)
    assert e.case is None and not e.order_is_rho_minus_1
    assert mult_order(3, 52) != 12


def test_family1_eligibility_rho11_case2():
    e = family1_eligible(11)
    assert e.case == 2
    assert e.ord_rho_3 == 5
    assert e.ord_4rho_3 == 10
    assert not e.in_family_condition


def test_family1_eligibility_validates_input():
    for bad in (9, 3, 4):
        with pytest.raises(FamilyError):
            family1_eligible(bad)


def test_family1_rho5_parameters():
    b = build_family1(5)
    assert (b.code.n, b.code.k) == (10, 4)
    assert (b.dual.n, b.dual.k) == (10, 6)
    assert (b.companion.n, b.companion.k) == (5, 2)
    assert (b.companion_dual.n, b.companion_dual.k) == (5, 3)
    assert b.companion.field.order == 9
    assert b.h_exponent == 11
    assert b.claims["code"].d_lower == 4  # isqrt(5) + 2


def test_family1_rho5_with_explicit_host_modulus():
    b = build_family1(5, host_modulus=[1, 2, 0, 1, 1])
    assert b.code.host.modulus == (1, 2, 0, 1, 1)
    assert b.code.beta == b.code.host.modulus_root()
    assert distance_report(b.code).d == 6


def test_family1_rho7_distances():
    b = build_family1(7)
    assert distance_report(b.code).d == 6
    assert distance_report(b.dual).d == 5
    assert distance_report(b.companion).d == 5
    assert distance_report(b.companion_dual).d == 4


def test_family1_rho43_builds_on_gf3_42_host():
    b = build_family1(43)
    parts = (b.code, b.dual, b.companion, b.companion_dual)
    assert [c.k for c in parts] == [42, 44, 21, 22]
    host = b.code.host
    assert (host.p, host.m) == (3, 42)
    assert host.descriptor()["modulus"] == "2,1,1,1,1,1" + ",0" * 36 + ",1"
    for c, d in ((b.code, b.dual), (b.companion, b.companion_dual)):
        assert d.g == c.h.reciprocal()
        dd = c.dual().dual()
        assert dd.g == c.g and dd.descriptor() == c.descriptor()


def test_supplied_host_moduli_need_no_factorization(monkeypatch, capsys,
                                                   smallest_irreducible):
    # a supplied modulus needs Rabin's test (the primes of m) only, and a
    # root of unity or subfield embedding the primes of its order, so no
    # build factors 3^82 - 1, 3^112 - 1 or 3^138 - 1 by trial division
    real = ff.factorize

    def factorize(n):
        if n > 10 ** 12:
            raise AssertionError(f"factorize({n})")
        return real(n)

    monkeypatch.setattr(ff, "factorize", factorize)
    ff._prime_divisors.cache_clear()  # no cached factorization hides a call
    host = make_field(3, 82, smallest_irreducible(3, 82))
    # `negacyclic field` prints the descriptor alone, which names no root
    assert main(["field", "--p", "3", "--m", "82", "--modulus",
                 ",".join(map(str, host.modulus))]) == 0
    assert json.loads(capsys.readouterr().out) == host.descriptor()
    beta = root_of_unity(host, 332)
    assert (beta ** 332).is_one()
    assert not any((beta ** (332 // r)).is_one() for r in (2, 83))
    emb = get_embedding(host, make_field(3, 2))
    assert all((emb.embed(e) ** 9) == emb.embed(e)
               for e in make_field(3, 2).elements())
    for rho in (47, 113, 139):
        f = smallest_irreducible(3, rho - 1)
        b = build_family1(rho, host_modulus=f, allow_case2=True)
        parts = (b.code, b.dual, b.companion, b.companion_dual)
        assert [(c.n, c.k) for c in parts] == [
            (2 * rho, rho - 1), (2 * rho, rho + 1),
            (rho, (rho - 1) // 2), (rho, (rho + 1) // 2)]
        assert b.code.host.modulus == tuple(f)
        if rho == 113:
            desc = b.code.descriptor()
            again = NegacyclicCode.from_descriptor(desc)
            assert again.g == b.code.g and again.descriptor() == desc


def test_family1_rejects_out_of_family():
    with pytest.raises(FamilyError, match="outside"):
        build_family1(13)
    with pytest.raises(FamilyError, match="outside"):
        build_family1(11)


def test_family1_case2_behind_flag():
    b = build_family1(11, allow_case2=True)
    assert (b.code.n, b.code.k) == (22, 10)
    assert b.claims["code"].source.endswith("case2")


def test_family1_table_shape():
    assert set(FAMILY1_TABLE) == {5, 7, 17, 19, 29, 31, 43}
    for rho, row in FAMILY1_TABLE.items():
        assert row["code"][0] == 2 * rho
        assert row["code"][1] == rho - 1
        assert row["dual"][1] == rho + 1
        assert row["companion"][1] == (rho - 1) // 2


# -- family 2 ----------------------------------------------------------------

def test_family2_l3_half_variant():
    b = build_family2(3, 14)
    assert b.variant == "half"
    assert (b.code.n, b.code.k) == (14, 6)
    assert b.claims["code"].d_lower == 5
    assert b.claims["dual"].d_exact == 5
    assert distance_report(b.code).d == 6
    assert low_weight_search(b.dual, 6).d == 5


def test_family2_l2_full_variant():
    b = build_family2(2, 10)
    assert b.variant == "full"
    assert b.claims["code"].d_lower == 6
    assert b.claims["dual"].d_exact == 4
    assert distance_report(b.code).d == 6
    assert distance_report(b.dual).d == 4


def test_family2_l3_full_variant():
    b = build_family2(3, 28)
    assert b.variant == "full"
    assert b.claims["code"].d_lower == 15
    assert b.claims["dual"].d_exact == 3
    assert distance_report(b.code).d == 15
    assert low_weight_search(b.dual, 4).d == 3


def test_family2_l5_quarter_variant():
    b = build_family2(5, 61)
    assert b.variant == "quarter"
    assert b.claims["code"].d_lower == 20
    assert b.claims["dual"].d_interval == (5, 6)


def test_family2_dimension_is_2l():
    for ell, n, code_ref, dual_ref in FAMILY2_EXAMPLES:
        b = build_family2(ell, n)
        assert b.code.k == 2 * ell == code_ref[1]
        assert b.dual.k == n - 2 * ell == dual_ref[1]


def test_family2_constraint_errors():
    with pytest.raises(FamilyError, match="divide"):
        build_family2(2, 7)
    with pytest.raises(FamilyError, match="2n >"):
        build_family2(2, 2)
    with pytest.raises(FamilyError, match="ell"):
        build_family2(1, 4)


# -- family 3 ----------------------------------------------------------------

def test_family3_m3_half_variant():
    b = build_family3(3, 13)
    assert b.variant == "half"
    assert (b.code.n, b.code.k) == (13, 6)
    assert b.claims["code"].d_lower == 4
    assert b.claims["dual"].d_exact == 5
    assert distance_report(b.code).d == 6


def test_family3_m4_quarter_variant():
    b = build_family3(4, 20)
    assert b.variant == "quarter"
    assert b.claims["code"].d_lower == 7
    assert b.claims["dual"].d_exact == 5  # m = 0 mod 4
    assert distance_report(b.code).d == 8
    assert low_weight_search(b.dual, 6).d == 5


def test_family3_m6_quarter_interval():
    b = build_family3(6, 182)
    assert b.variant == "quarter"
    assert b.claims["dual"].d_interval == (5, 6)


def test_family3_check_cosets_disjoint():
    for m in range(3, 9):
        n = (3 ** m - 1) // 2
        t = build_cosets(3, 2 * n)
        assert t.leader_of[2 * n - 1] != t.leader_of[1]
        assert len(t.coset_of(1)) == len(t.coset_of(2 * n - 1)) == m


def test_family3_dimension_is_2m():
    for m, n, code_ref, dual_ref in FAMILY3_EXAMPLES:
        b = build_family3(m, n)
        assert b.code.k == 2 * m == code_ref[1]
        assert b.dual.k == n - 2 * m == dual_ref[1]


def test_family3_constraint_errors():
    with pytest.raises(FamilyError, match="divide"):
        build_family3(3, 7)
    with pytest.raises(FamilyError, match="m >= 3"):
        build_family3(2, 4)
    with pytest.raises(FamilyError):
        build_family3(4, 5)  # 5 | 40 but too small


# -- family 4 ----------------------------------------------------------------

def test_family4_m3_codes():
    b1 = build_family4(1, 3)
    b3 = build_family4(3, 3)
    assert (b1.code.n, b1.code.k) == (13, 7)
    assert (b3.code.n, b3.code.k) == (13, 6)
    assert distance_report(b1.code).d == 5
    assert distance_report(b3.code).d == 6
    assert b1.claims["code"].d_exact == 5
    assert b3.claims["code"].d_exact == 6


def test_family4_generator_degree_matches_class_size():
    for m in range(2, 8):
        sizes = weight_class_sizes(m)
        n = (3 ** m - 1) // 2
        for j in (1, 3):
            b = build_family4(j, m)
            assert b.code.g.degree == sizes[j]
            assert b.code.k == n - sizes[j]
        # the two generators factor x^n + 1 between them
        assert sizes[1] + sizes[3] == n


def test_family4_duality_odd_m():
    for m in (3, 5, 7):
        b1 = build_family4(1, m)
        b3 = build_family4(3, m)
        assert b1.code.dual().zero_leaders == b3.code.zero_leaders
        assert b1.code.dual().g == b3.code.g


def test_family4_m5_claims():
    b1 = build_family4(1, 5)
    b3 = build_family4(3, 5)
    assert b1.code.k == 60 and b3.code.k == 61
    assert b1.claims["code"].d_lower == 6
    assert b3.claims["code"].d_lower == 4


def test_family4_m7_claims():
    b1 = build_family4(1, 7)
    b3 = build_family4(3, 7)
    assert b1.claims["code"].d_lower == 10
    assert b3.claims["code"].d_lower == 9


def test_family4_multiplier_m5():
    v, bound = family4_multiplier(1, 5)
    assert (v, bound) == (129, 6)
    v, bound = family4_multiplier(3, 5)
    assert (v, bound) == (111, 4)
    # every v*(1+2i) lands in the right class (recheck here independently)
    for j, v, i_max in ((1, 129, 4), (3, 111, 2)):
        for i in range(i_max + 1):
            assert wt3((v * (1 + 2 * i)) % 242) % 4 == j


def test_family4_multiplier_m7():
    v, bound = family4_multiplier(1, 7)
    assert v == (3 ** 7 - 1) // 2 - 27 - 1 == 1065
    assert bound == 10
    v, bound = family4_multiplier(3, 7)
    assert v == (3 ** 7 - 1) // 2 + 27 - 1 == 1119
    assert bound == 9


def test_family4_multiplier_bound_realized_by_bch():
    for m in (5, 7):
        for j in (1, 3):
            b = build_family4(j, m)
            v, bound = family4_multiplier(j, m)
            assert b.code.bch_bound(v) >= bound
            assert b.code.bch_bound(v) >= b.claims["code"].d_lower


def test_family4_validation():
    with pytest.raises(FamilyError):
        build_family4(2, 5)
    with pytest.raises(FamilyError):
        build_family4(1, 1)
    with pytest.raises(FamilyError):
        family4_multiplier(1, 4)
    with pytest.raises(FamilyError):
        family4_multiplier(1, 3)


def test_family1_inequalities_small_rho():
    # d(C) >= d(companion) and d(C dual) >= d(companion dual), both exact
    for rho in (5, 7):
        b = build_family1(rho)
        d_c = distance_report(b.code).d
        d_comp = distance_report(b.companion).d
        d_cd = distance_report(b.dual).d
        d_compd = distance_report(b.companion_dual).d
        assert d_c >= d_comp >= b.claims["companion"].d_lower
        assert d_cd >= d_compd >= b.claims["companion_dual"].d_lower
