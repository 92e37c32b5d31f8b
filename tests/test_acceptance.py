"""Acceptance battery: one test per criterion, each printing a PASS line.

Default-budget runs (3^16 words for the information-set search and weight
distributions, column search to weight 6) finish in a few seconds.  Set
NEGACYCLIC_ACCEPT_FULL=1 to also run the raised-budget checks (3^18 words and
weight-9 column searches, and the 3^21-word information-set searches that
settle the rho = 29, 31 rows).
"""

import os

import pytest

from negacyclic.codes import NegacyclicCode, uv_construct, \
    residue_distance_relation
from negacyclic.cosets import weight_class_sizes, weight_classes, wt3
from negacyclic.distance import (SearchBudget, distance_report,
                                 information_set_search, low_weight_search,
                                 sphere_packing_max_d, weight_distribution)
from negacyclic.families import (FAMILY1_TABLE, FAMILY2_EXAMPLES,
                                 FAMILY3_EXAMPLES, build_family1,
                                 build_family2, build_family3, build_family4,
                                 family4_multiplier)
from negacyclic.ff import make_field
from negacyclic.poly import Poly
from negacyclic.verify import EXTERNAL, MATCH, ResultCache, verify_claims

FULL = os.environ.get("NEGACYCLIC_ACCEPT_FULL") == "1"
GF3 = make_field(3, 1)
GF5 = make_field(5, 1)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ResultCache(str(tmp_path_factory.mktemp("cache") / "results.json"))


def _pass(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_table1_reproduction(cache):
    expected = {
        (10, 4): (6, 4), (10, 6): (4, 2), (14, 6): (6, 4), (14, 8): (5, 2),
        (20, 10): (7, 6), (20, 12): (5, 4), (20, 16): (3, 2),
    }
    manifest = verify_claims("table1", cache=cache)
    by_label = {r["label"]: r for r in manifest.records}
    for (n, k), (dn, dc) in expected.items():
        rn = by_label[f"table1/n={n}/k={k}/negacyclic"]
        rc = by_label[f"table1/n={n}/k={k}/cyclic"]
        assert rn["verdict"] == MATCH and rn["computed"]["lower"] == dn
        assert rc["verdict"] == MATCH and rc["computed"]["lower"] == dc
    assert manifest.exit_code == 0
    _pass(1, "all 7 best-negacyclic vs best-cyclic rows exact")


def test_criterion_2_family1_table_default_budget(cache):
    manifest = verify_claims("table2", cache=cache)
    by_label = {r["label"]: r for r in manifest.records}
    assert manifest.summary["mismatch"] == 0
    for rho in (5, 7, 17, 19):
        for part in ("code", "dual", "companion", "companion_dual"):
            assert by_label[f"table2/rho={rho}/{part}"]["verdict"] == MATCH
    # every rho = 17, 19 part is beyond the column search at weight 6 and
    # goes to the information-set search
    for rho in (17, 19):
        for part in ("code", "dual", "companion", "companion_dual"):
            computed = by_label[f"table2/rho={rho}/{part}"]["computed"]
            assert computed["method"] == "information-set"
    for rho in (29, 31, 43):
        for part in ("code", "dual", "companion", "companion_dual"):
            assert by_label[f"table2/rho={rho}/{part}"]["verdict"] == EXTERNAL
    # [17,9,7] resolves exactly through the column search at weight 7
    b17 = build_family1(17)
    rep = low_weight_search(b17.companion_dual, 7)
    assert rep.exact and rep.d == 7
    _pass(2, "rho 5/7/17/19 fully exact (rho 17/19 by information sets), "
             "[17,9,7] also by column search; "
             "rho 29/31/43 external-unverified")


@pytest.mark.skipif(not FULL, reason="raised-budget run: set NEGACYCLIC_ACCEPT_FULL=1")
def test_criterion_2_family1_table_raised_budget(cache):
    budget = SearchBudget(max_message_enum=3 ** 18, max_column_weight=9)
    manifest = verify_claims("table2", budget=budget, cache=cache)
    by_label = {r["label"]: r for r in manifest.records}
    for rho in (5, 7, 17, 19):
        for part in ("code", "dual", "companion", "companion_dual"):
            assert by_label[f"table2/rho={rho}/{part}"]["verdict"] == MATCH
    # the rho = 29, 31 rows verify leaves external: at this budget six
    # settle at their Table 2 d, and the two the budget cannot settle are
    # brackets that hold it
    brackets = {}
    for rho in (29, 31):
        built = build_family1(rho)
        for part, (n, k, d) in FAMILY1_TABLE[rho].items():
            rep = distance_report(getattr(built, part), budget)
            assert rep.lower <= d <= rep.upper, (rho, part, rep)
            if rep.exact:
                assert rep.method == "information-set" and rep.d == d
            else:
                brackets[(n, k)] = (rep.lower, rep.upper)
    assert brackets == {(58, 28): (17, 20), (58, 30): (14, 18)}
    _pass(2, "raised budget: all rho in {5,7,17,19} rows exact; rho = 29, 31: "
             "six rows exact, [58,28] 17..20 and [58,30] 14..18")


@pytest.mark.skipif(not FULL, reason="raised-budget run: set NEGACYCLIC_ACCEPT_FULL=1")
@pytest.mark.parametrize("rho", [29, 31])
def test_criterion_2_family1_large_rows_by_information_sets(rho):
    # the rows verify leaves external: with reach d and 3^21 words, the
    # information-set search settles each part at its claimed d ([58,28]
    # enumerates 487 M words, [58,30] 152 M and the six others 3.5-22 M)
    built = build_family1(rho)
    budget = SearchBudget(max_message_enum=3 ** 21)
    for part, (n, k, d) in FAMILY1_TABLE[rho].items():
        code = getattr(built, part)
        assert (code.n, code.k) == (n, k)
        rep = information_set_search(code, budget, d_max=d)
        assert rep is not None and rep.exact and rep.d == d, (part, rep)
        assert rep.method == "information-set"
        assert sum(1 for v in rep.witness if v) == d
        assert code.contains(rep.witness)
    _pass(2, f"raised budget: all 4 rho = {rho} rows exact by information sets")


def test_criterion_3_family2_examples(cache):
    manifest = verify_claims("examples", cache=cache)
    by_label = {r["label"]: r for r in manifest.records}
    for ell, n, code_ref, dual_ref in FAMILY2_EXAMPLES:
        for part in ("code", "dual"):
            rec = by_label[f"family2/l={ell}/n={n}/{part}"]
            assert rec["verdict"] == MATCH, rec["label"]
            assert rec["computed"]["exact"]
    _pass(3, "all 7 family-2 example parameter pairs exact")


def test_criterion_4_family3_examples(cache):
    manifest = verify_claims("examples", cache=cache)
    by_label = {r["label"]: r for r in manifest.records}
    for m, n, code_ref, dual_ref in FAMILY3_EXAMPLES:
        for part in ("code", "dual"):
            rec = by_label[f"family3/m={m}/n={n}/{part}"]
            assert rec["verdict"] == MATCH, rec["label"]
            assert rec["computed"]["exact"]
    _pass(4, "all 5 family-3 example parameter pairs exact")


def test_criterion_5_family4(cache):
    manifest = verify_claims("family4", cache=cache)
    assert manifest.summary["mismatch"] == 0
    by_label = {r["label"]: r for r in manifest.records}
    assert by_label["family4/m=3/j=1"]["computed"]["lower"] == 5
    assert by_label["family4/m=3/j=3"]["computed"]["lower"] == 6
    # dimensions at m = 5 and 7 equal the closed-form class counts
    assert build_family4(1, 5).code.k == 60
    assert build_family4(3, 5).code.k == 61
    s7 = weight_class_sizes(7)
    assert build_family4(1, 7).code.k == s7[3]
    assert build_family4(3, 7).code.k == s7[1]
    for m in (5, 7):
        assert by_label[f"family4/m={m}/duality"]["computed"]["holds"]
    # multiplier BCH bounds meet the claimed values
    expected = {(5, 1): 6, (5, 3): 4, (7, 1): 10, (7, 3): 9}
    for (m, j), want in expected.items():
        rec = by_label[f"family4/m={m}/multiplier/j={j}"]
        assert rec["computed"]["guaranteed"] == want
        assert rec["computed"]["bch_bound"] >= want
        assert rec["verdict"] == MATCH
    _pass(5, "m=3 exact [13,7,5]/[13,6,6]; m=5,7 dimensions, duality, and "
             "multiplier bounds all verified")


def _all_example_codes():
    out = []
    for rho in (5, 7, 17):
        b = build_family1(rho)
        out += [(f"family1/{rho}/code", b.code, b.dual),
                (f"family1/{rho}/companion", b.companion, b.companion_dual)]
    for ell, n, _, _ in FAMILY2_EXAMPLES:
        b = build_family2(ell, n)
        out.append((f"family2/{ell}/{n}", b.code, b.dual))
    for m, n, _, _ in FAMILY3_EXAMPLES:
        b = build_family3(m, n)
        out.append((f"family3/{m}/{n}", b.code, b.dual))
    for j in (1, 3):
        for m in (3, 5, 7):
            b = build_family4(j, m)
            out.append((f"family4/{j}/{m}", b.code, b.code.dual()))
    return out


def test_criterion_6_property_suites(cache):
    # (a) generator-check product and dual zero-set reciprocity, every code
    for label, code, dual in _all_example_codes():
        lam = -code.field.one()
        assert code.g * code.h == Poly.x_pow_minus(code.field, code.n, lam), label
        R = 2 * code.n
        elig = set(range(1, R, 2))
        expect = {(R - i) % R for i in elig - set(code.zero_exponents)}
        assert set(dual.zero_exponents) == expect, label
        assert code.k + dual.k == code.n, label

    # (b) trace-representation set equality for C(5), C(7) and duals
    for rho in (5, 7):
        b = build_family1(rho)
        for code in (b.code, b.dual):
            words = {tuple(int(v) for v in w) for w in code.codewords()}
            assert code.trace_code_set() == words, f"rho={rho}"

    # (c) x -> -x preserves weight distributions for odd-length family codes
    psi_cases = [build_family2(4, 41).code, build_family2(5, 61).code,
                 build_family3(3, 13).code, build_family3(5, 121).code,
                 build_family4(1, 3).code, build_family4(3, 3).code]
    for code in psi_cases:
        assert code.n % 2 == 1 and 3 ** code.k <= 3 ** 10
        assert weight_distribution(code) == weight_distribution(code.psi_image())

    # (d) even-length splitting at q = 5: dimensions, distances, u+v|u-v
    factors = [[2, 1], [4, 3, 1], [3, 1], [4, 2, 1]]  # factors of x^6+1 / GF(5)
    for mask in range(16):
        g = Poly.one(GF5)
        for i in range(4):
            if mask >> i & 1:
                g = g * Poly.from_scalars(GF5, factors[i])
        c = NegacyclicCode.from_generator(GF5, 6, g, -1)
        r1, r2, lam = c.residue_decompose()
        assert c.k == r1.k + r2.k
        if 0 < c.k:
            d1 = distance_report(r1).d if r1.k else None
            d2 = distance_report(r2).d if r2.k else None
            rel = residue_distance_relation(d1, d2)
            d = distance_report(c).d
            if rel[0] == "exact":
                assert rel[1] == d
            else:
                assert rel[1] <= d <= rel[2]
            if r1.k and r2.k:
                assert weight_distribution(uv_construct(r1, r2)) == \
                    weight_distribution(c)

    # (e) digit-sum class counts vs closed forms, m <= 8
    for m in range(2, 9):
        assert weight_classes(m).class_sizes == weight_class_sizes(m)

    # (f) digit complement identity, s <= 8
    for s in range(2, 9):
        top = 3 ** s - 1
        assert all(wt3(top - i) == 2 * s - wt3(i) for i in range(top + 1))

    # (g) BCH bound never exceeds an exactly-computed distance
    for code in (build_family1(5).code, build_family1(7).code,
                 build_family2(3, 14).code, build_family3(3, 13).code,
                 build_family3(4, 20).code, build_family4(1, 3).code,
                 build_family4(3, 3).code):
        assert code.best_bch_multiplier()[1] <= distance_report(code).d

    _pass(6, "structure, trace, psi, even-length split, class counts, "
             "complement identity, and BCH-vs-exact suites all hold")


def test_criterion_7_sphere_packing_certificates():
    assert sphere_packing_max_d(41, 33, 3) == 5
    assert sphere_packing_max_d(10, 6, 3) == 4
    assert sphere_packing_max_d(82, 74, 3) == 4
    _pass(7, "packing bound certifies the distance-optimal example verdicts")
