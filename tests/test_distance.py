import functools
import itertools
import math
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from negacyclic import distance
from negacyclic.codes import (CodeError, ConstacyclicCode, LinearCode,
                              NegacyclicCode, rref, span_rows)
from negacyclic.cosets import build_cosets, mult_order
from negacyclic.distance import (DistanceReport, SearchBudget, distance_report,
                                 information_set_search, low_weight_search,
                                 parse_budget, sphere_packing_max_d,
                                 weight_distribution)
from negacyclic.families import (FAMILY1_TABLE, FAMILY2_EXAMPLES,
                                 FAMILY3_EXAMPLES, build_family2, build_family3,
                                 build_family4, build_family1)
from negacyclic.ff import make_field
from negacyclic.poly import Poly
from negacyclic.verify import verify_claims

GF3 = make_field(3, 1)


def brute_weights(code):
    """Oracle: plain matrix-product enumeration of every codeword weight."""
    rows = np.asarray(code.rows(), dtype=np.int64)
    q = code.field.order
    assert code.field.m == 1, "oracle only for prime fields"
    out = {}
    for msg in range(q ** code.k):
        digits = np.array([(msg // q ** r) % q for r in range(code.k)])
        word = digits @ rows % q
        w = int(np.count_nonzero(word))
        out[w] = out.get(w, 0) + 1
    return out


def min_weight(code):
    """The least nonzero weight of weight_distribution: the enumeration is
    the oracle the distance engines are checked against."""
    return min(w for w in weight_distribution(code) if w)


def test_enum_c5_distance_and_witness():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    assert min_weight(c) == 6
    rep = distance_report(c)
    assert rep.d == 6 and rep.exact
    assert sum(1 for v in rep.witness if v) == 6
    assert c.contains(rep.witness)


def test_enum_matches_brute_oracle():
    for code in (NegacyclicCode.from_check(GF3, 10, [1]),
                 NegacyclicCode.from_check(GF3, 13, [1, 17]),
                 NegacyclicCode.from_check(GF3, 10, [5])):
        wd = weight_distribution(code)
        assert wd == brute_weights(code)


def test_check_x2p1_code_distribution():
    # eight nonzero words: the generator x^8+2x^6+x^4+2x^2+1 and its scalar
    # multiple have weight 5; the four words mixing both message digits have
    # weight 10 (values frozen from the brute oracle below)
    c = NegacyclicCode.from_check(GF3, 10, [5])  # check polynomial x^2 + 1
    assert c.k == 2
    wd = weight_distribution(c)
    assert wd == brute_weights(c)
    assert wd == {0: 1, 5: 4, 10: 4}
    assert distance_report(c).d == 5


def test_enum_declines_over_budget():
    c = NegacyclicCode.from_check(GF3, 13, [1, 17])
    assert weight_distribution(c, SearchBudget(max_message_enum=100)) is None


# run sizes of the enumeration: the default, a small one (a few inner rows,
# a few outer sums a run), and 1, which keeps one inner row and takes one
# outer sum a run
CHUNKS = (distance._CHUNK, 64, 1)


def test_enum_inner_block_determinism():
    c = NegacyclicCode.from_check(GF3, 13, [1, 17])
    hists = []
    for chunk in CHUNKS:
        with mock.patch.object(distance, "_CHUNK", chunk):
            hists.append(weight_distribution(c))
    assert hists == [brute_weights(c)] * len(CHUNKS)


def test_zero_code_distribution_and_enum():
    zero = NegacyclicCode.from_generator(
        GF3, 10, Poly.x_pow_minus(GF3, 10, -GF3.one()))
    assert weight_distribution(zero) == {0: 1}
    with pytest.raises(CodeError):
        information_set_search(zero)
    with pytest.raises(CodeError):
        distance_report(zero)


def test_low_weight_finds_weight_two_cyclic_word():
    # cyclic code with zero beta^0: contains x - 1
    c = NegacyclicCode.from_zeros(GF3, 10, [0], 1)
    rep = low_weight_search(c, 4)
    assert rep.exact and rep.lower == 2
    assert sum(1 for v in rep.witness if v) == 2


def test_low_weight_family2_l4_dual():
    b = build_family2(4, 41)
    rep = low_weight_search(b.dual, 6)
    assert rep.exact and rep.lower == 5
    assert b.dual.contains(rep.witness)


def test_low_weight_family3_m4_dual():
    b = build_family3(4, 40)
    rep = low_weight_search(b.dual, 6)
    assert rep.exact and rep.lower == 5


def test_low_weight_agrees_with_enum():
    b1 = build_family1(5)
    cases = [NegacyclicCode.from_check(GF3, 10, [1]).dual(),   # [10,6,4]
             build_family3(3, 13).dual,                        # [13,7,5]
             build_family2(3, 14).dual,                        # [14,8,5]
             build_family4(1, 3).code,                         # [13,7,5]
             b1.companion,                                     # [5,2,4] / GF(9)
             b1.companion_dual]                                # [5,3,3] / GF(9)
    for c in cases:
        rep = low_weight_search(c, 6)
        assert rep.exact and rep.lower == min_weight(c)


def test_low_weight_not_found_reports_bound():
    c = NegacyclicCode.from_check(GF3, 10, [1])  # d = 6
    rep = low_weight_search(c, 4)
    assert not rep.exact
    assert rep.lower == 5
    assert rep.witness is None


def test_low_weight_full_space():
    full = NegacyclicCode.from_generator(GF3, 10, Poly.one(GF3))
    rep = low_weight_search(full, 3)
    assert rep.exact and rep.lower == 1


def test_sphere_packing_values():
    assert sphere_packing_max_d(10, 6, 3) == 4
    assert sphere_packing_max_d(41, 33, 3) == 5
    assert sphere_packing_max_d(82, 74, 3) == 4
    assert sphere_packing_max_d(12, 12, 3) == 1
    assert sphere_packing_max_d(20, 16, 3) == 3


def test_sphere_packing_matches_the_direct_formula():
    # largest d with V_q(n, (d - 1) // 2) <= q^(n - k) and, for even d,
    # V_q(n - 1, (d - 2) // 2) <= q^(n - 1 - k), each volume summed afresh
    def volume(n, t, q):
        return sum(math.comb(n, i) * (q - 1) ** i for i in range(t + 1))

    for q in (2, 3, 4, 5, 9):
        for n in range(1, 90):
            vol = [volume(n, t, q) for t in range(n + 1)]
            vol_even = [volume(n - 1, t, q) for t in range(n)]
            for k in range(1, n + 1):
                cap_even = q ** (n - 1 - k) if k < n else 0
                want = max(d for d in range(1, n + 1)
                           if vol[(d - 1) // 2] <= q ** (n - k)
                           and (d % 2 or vol_even[(d - 2) // 2] <= cap_even))
                assert sphere_packing_max_d(n, k, q) == want, (n, k, q)
    # a long code, where summing each volume afresh took seconds: both
    # volumes stay under their caps up to d = n
    assert sphere_packing_max_d(8000, 2, 3) == 8000


def test_sphere_packing_validates_args():
    with pytest.raises(ValueError):
        sphere_packing_max_d(5, 6, 3)


@pytest.mark.parametrize("n,k,q,want", [
    (11, 6, 3, (5, "griesmer")),          # the ternary Golay code
    (12, 6, 3, (6, "griesmer")),
    (23, 12, 2, (7, "sphere-packing")),   # the binary Golay code
    (24, 12, 2, (8, "griesmer")),
    (6, 3, 4, (4, "singleton")),          # the hexacode
    # Griesmer gives 14 and 7, but a [34,16,d] code with d = 13 or 14 would
    # have a residual [34 - d,15,>=5] code, and a [14,6,7] code a residual
    # [7,5,>=3] code: sphere packing rules out all three
    (34, 16, 3, (12, "residual")),
    (14, 6, 3, (6, "residual")),
])
def test_upper_bound_values_and_sources(n, k, q, want):
    assert distance.upper_bound(n, k, q) == want


def test_upper_bound_matches_the_direct_formula():
    # Griesmer summed over all k terms, then the residual step, afresh
    def classic(n, k, q):
        griesmer = max(d for d in range(1, n + 1)
                       if sum(-(-d // q ** i) for i in range(k)) <= n)
        return min(n - k + 1, griesmer, sphere_packing_max_d(n, k, q))

    for q in (2, 3, 4, 9):
        for n in range(1, 30):
            for k in range(1, n + 1):
                d = classic(n, k, q)
                while k >= 2 and classic(n - d, k - 1, q) < -(-d // q):
                    d -= 1
                assert distance.upper_bound(n, k, q)[0] == d, (n, k, q)


def test_upper_bound_validates_args_and_stays_cheap():
    with pytest.raises(ValueError):
        distance.upper_bound(5, 6, 3)
    # a plain function, so that a tracer can wrap it wherever it is bound
    import inspect
    assert inspect.isfunction(distance.upper_bound)
    # no q^i is formed past d: forming every q^i, i < k, takes about 1.5 s
    # for [1093,547]_3 alone
    for key in ((1093, 547, 3), (3281, 3265, 3)):
        distance._UPPER.pop(key, None)
    t0 = time.perf_counter()
    assert distance.upper_bound(1093, 547, 3) == (334, "residual")
    assert distance.upper_bound(3281, 3265, 3) == (5, "sphere-packing")
    assert time.perf_counter() - t0 < 0.25


def test_upper_bound_holds_on_every_brute_force_code(brute_codes):
    met = 0
    for code, words in brute_codes:
        d = int(np.count_nonzero(words, axis=1).min())
        upper = distance.upper_bound(code.n, code.k, code.field.order)[0]
        assert upper >= d, code
        met += upper == d
    assert met > 0


def test_weight_distribution_macwilliams_duality():
    # oracle: the dual distribution via the MacWilliams transform
    c = NegacyclicCode.from_check(GF3, 10, [1])
    wd = weight_distribution(c)
    n, q, k = c.n, 3, c.k
    dual_from_transform = [0] * (n + 1)
    for w in range(n + 1):
        a_w = wd.get(w, 0)
        if not a_w:
            continue
        # expand (x + (q-1)y)^(n-w) (x - y)^w and collect y-degrees
        for i in range(n - w + 1):
            for j in range(w + 1):
                coef = (math.comb(n - w, i) * (q - 1) ** i
                        * math.comb(w, j) * (-1) ** j)
                dual_from_transform[i + j] += a_w * coef
    dual_from_transform = [v // q ** k for v in dual_from_transform]
    wd_dual = weight_distribution(c.dual())
    assert dual_from_transform == [wd_dual.get(w, 0) for w in range(n + 1)]


def test_distance_report_small_code_paths():
    # [28,22,3]: the column search to weight 5 reaches the packing bound 4
    # with 17 k side entries, where the information-set search needs 65 k words
    rep = distance_report(build_family2(3, 28).dual)
    assert rep.exact and rep.d == 3 and rep.method == "column-search"
    # [14,6,6]: packing bound 7, so only the information-set search settles it
    rep = distance_report(build_family1(7).code)
    assert rep.exact and rep.d == 6 and rep.method == "information-set"


def test_distance_report_column_path():
    b = build_family2(4, 41)
    rep = distance_report(b.dual, SearchBudget(max_message_enum=3 ** 10))
    assert rep.exact and rep.d == 5 and rep.method == "column-search"


def test_distance_report_bounds_only_exact_via_bch_and_packing():
    b = build_family2(4, 41)
    rep = distance_report(b.dual, SearchBudget(max_message_enum=3 ** 10,
                                               max_column_weight=0))
    assert rep.method == "bounds-only"
    assert rep.exact and rep.lower == rep.upper == 5
    assert "bch" in rep.lower_src


def test_distance_report_interval_when_budget_too_small():
    # [34,18,10]: BCH 5, upper bound 12 (Griesmer); 3 words admit no
    # information-set search, so the column search to weight 5 proves d > 5
    rep = distance_report(build_family1(17).dual,
                          SearchBudget(max_message_enum=3, max_column_weight=5))
    assert not rep.exact and rep.method == "bounds-only"
    assert (rep.lower, rep.upper, rep.lower_src, rep.upper_src) == (
        6, 12, "column-search w<=5", "griesmer")
    assert rep.work > 0
    # [14,6,6]: BCH 5, packing 7, but the residual step lowers the upper
    # bound to 6, which the same column search meets: exact by bounds
    c = build_family1(7).code
    rep = distance_report(c, SearchBudget(max_message_enum=3,
                                          max_column_weight=5))
    assert (rep.exact, rep.method, rep.witness) == (True, "bounds-only", None)
    assert (rep.lower, rep.upper, rep.lower_src, rep.upper_src) == (
        6, 6, "column-search w<=5", "residual")
    assert rep.work > 0
    # 100 words admit the information-set search with reach 5 (36 words,
    # against 2633 column-search entries); it stops at level 2, where
    # L(2) = 6 meets the weight-6 word it found, so it settles d
    rep = distance_report(c, SearchBudget(max_message_enum=100,
                                          max_column_weight=5))
    assert (rep.exact, rep.d, rep.method, rep.work) == (
        True, 6, "information-set", 36)


def test_report_json_round_trip():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    rep = distance_report(c)
    again = DistanceReport.from_json(rep.to_json())
    assert (again.lower, again.upper, again.exact, again.method,
            again.witness) == (rep.lower, rep.upper, rep.exact, rep.method,
                               rep.witness)


@pytest.fixture(scope="module")
def family1_rho19():
    return build_family1(19)


def test_bounds_only_report_carries_column_search_work(family1_rho19):
    # [82,74,4], BCH 3, packing 4: under 3^12 and weight 3 no engine can
    # settle d (the column search stops short of 4, and the information-set
    # search to the packing bound needs 9.5 M words), and the column search
    # to weight 3 (7135 entries) is cheaper than the information-set search
    # with reach 3 (265 k words)
    code = build_family2(4, 82).dual
    budget = SearchBudget(max_message_enum=3 ** 12, max_column_weight=3)
    rep = distance_report(code, budget)
    assert (rep.method, rep.lower_src) == ("bounds-only", "column-search w<=3")
    searched = low_weight_search(code, 3)
    assert not searched.exact
    assert rep.work == searched.work > 0
    assert rep.exact and rep.lower == rep.upper == 4  # w <= 3 meets packing
    # the default budget lets the column search reach the packing bound
    rep = distance_report(code)
    assert (rep.exact, rep.d, rep.method) == (True, 4, "column-search")
    # [38,20,9] under 3^12 and weight 5: the information-set search with
    # reach 5 (4960 words to level 3, where L(3) = 8 > 5) is cheaper than
    # the column search to weight 5 (42,409 entries), which also prices how
    # deep it may go; level 4 would take 43,720 words, so it stops at level
    # 3 and proves d >= ceil(38 * 4 / 20) = 8 over all 38 windows, and its
    # work is carried
    code = family1_rho19.dual
    budget = SearchBudget(max_message_enum=3 ** 12, max_column_weight=5)
    assert distance._column_words(38, 3, 5) == 42409
    rep = distance_report(code, budget)
    assert (rep.method, rep.lower, rep.upper, rep.lower_src) == (
        "bounds-only", 8, 12, "information-set w<=3")
    searched = information_set_search(code, d_max=5)
    assert rep.work == searched.work == 4960
    # [38,18,10] and its [19,9,10] companion over GF(9) under 3^12, which
    # does not admit the information-set search to the upper bound: the
    # proof of d > 6 goes on to level 4, the deepest within both the budget
    # and the column search's price to weight 6 (level 5 takes 165,156
    # words against a price of 143,641 entries, and 586,281 words against
    # the budget's 531,441), where ceil(n * 5 / k) = 11 passes the least
    # weight found, so it settles d = 10 with a witness
    for code, words in ((family1_rho19.code, 28068),
                        (family1_rho19.companion, 70185)):
        rep = distance_report(code, SearchBudget(max_message_enum=3 ** 12))
        assert (rep.exact, rep.d, rep.method, rep.work) == (
            True, 10, "information-set", words)
        _check_witness(code, rep, 10)
        # the default budget admits it to the upper bound: d is exact
        rep = distance_report(code)
        assert (rep.exact, rep.d, rep.method) == (True, 10, "information-set")


@pytest.fixture(scope="module")
def family1_large():
    return [build_family1(rho) for rho in (29, 31)]


def test_family1_large_bounds_carry_work_and_time(family1_large):
    # the eight rho = 29, 31 rows stay bounds-only at the default budget;
    # each proof of d > 6 runs the information-set search to level 4, the
    # deepest whose words fit the column search's price, and its report
    # carries the words counted, C(k, w)(q - 1)^(w - 1) summed over the
    # levels.  Level 4 proves ceil(n * 5 / k) = 11 or 10 over all n windows;
    # the first level past 6, level 3, proved 9 or 8 (width 67, now 55)
    got, brackets = [], []
    for rho, b in zip((29, 31), family1_large):
        for part in ("code", "dual", "companion", "companion_dual"):
            rep = distance_report(getattr(b, part))
            assert rep.method == "bounds-only"
            assert rep.lower_src == "information-set w<=4"
            # each holds the paper's d
            assert rep.lower <= FAMILY1_TABLE[rho][part][2] <= rep.upper
            got.append(rep.work)
            brackets.append((rep.lower, rep.upper, rep.upper_src))
    assert got == [177688, 236380, 536550, 728855, 236380, 308544, 728855,
                   968656]
    # the ceilings of upper_bound: the sphere-packing bound alone gave
    # 22, 20, 17, 15, 23, 21, 18 and 17
    assert brackets == [
        (11, 20, "residual"), (10, 18, "residual"), (11, 15, "griesmer"),
        (10, 14, "griesmer"), (11, 21, "residual"), (10, 20, "residual"),
        (11, 16, "griesmer"), (10, 15, "griesmer")]


def test_bracket_proof_goes_as_deep_as_the_column_search_price(family1_large):
    # the plan's level for each family1-large proof of d > 6 is the deepest
    # whose words fit both the budget and the column search's price to
    # weight 6: not the first level past 6, and not the whole budget
    budget = SearchBudget()
    prices = []
    for b in family1_large:
        for part in ("code", "dual", "companion", "companion_dual"):
            code = getattr(b, part)
            n, k, q = code.n, code.k, code.field.order
            run, _, plan = distance._plan(code, budget)
            assert run.func is information_set_search
            W = distance._info_set_levels(n, k, run.args[2])
            assert plan.lower_src == f"information-set w<={W}"
            price = distance._column_words(n, q, 6)
            prices.append(price)
            limit = min(budget.max_message_enum, price)
            words = [sum(math.comb(k, w) * (q - 1) ** (w - 1)
                         for w in range(1, level + 1)) for level in (W, W + 1)]
            assert words[0] <= limit < words[1], (n, k, q)
    assert prices == [513881, 513881, 2397547, 2397547, 628185, 628185,
                      2944319, 2944319]


def test_bracket_run_builds_no_table_for_its_last_level(family1_large):
    # level 4 of the [58,28] proof reads T_3 nowhere else, so it pairs the
    # 750 two-term top parts with T_2 instead of building T_3's 26,208
    # entries; lower bound and work are those of the levels it ran
    code = family1_large[0].code
    with mock.patch.object(distance, "_colex_grow",
                           wraps=distance._colex_grow) as grow:
        rep = distance_report(code)
    assert (rep.lower, rep.lower_src, rep.work) == (
        11, "information-set w<=4", 177688)
    assert [c.args[3] for c in grow.call_args_list] == [0, 1, 2]
    assert len(grow.call_args_list[-1].args[0]) == 3     # T_0, T_1, T_2


def test_distance_report_runs_at_most_one_engine(family1_rho17, family1_rho19,
                                                 family1_large):
    # an engine run to settle d (the column search to w_cap >= the upper
    # bound, or the information-set search with reach = the upper bound)
    # always settles it, so the cheaper of them is the only one that runs;
    # short of that, the cheaper engine that proves d > w_cap runs, or none
    codes = [getattr(b, part)
             for b in ([build_family2(ell, n) for ell, n, *_ in FAMILY2_EXAMPLES]
                       + [build_family3(m, n) for m, n, *_ in FAMILY3_EXAMPLES])
             for part in ("code", "dual")]
    codes += [getattr(b, part)
              for b in [family1_rho17, family1_rho19, *family1_large]
              for part in ("code", "dual", "companion", "companion_dual")]
    seen = set()
    for code in codes:
        upper = distance.upper_bound(code.n, code.k, code.field.order)[0]
        for budget in (SearchBudget(), SearchBudget(3 ** 12, 3)):
            with mock.patch.object(distance, "low_weight_search",
                                   wraps=distance.low_weight_search) as col, \
                    mock.patch.object(distance, "information_set_search",
                                      wraps=distance.information_set_search) as info:
                rep = distance_report(code, budget)
            assert col.call_count + info.call_count <= 1, (code, budget)
            if col.called:
                settle = col.call_args.args[1] >= upper
            elif info.called:
                settle = info.call_args.args[2] == upper
            else:
                settle = None
                assert rep.lower_src.startswith("bch(v="), (code, budget)
            if settle:
                assert rep.exact, (code, budget)
            seen.add((col.called, info.called, settle))
    # both engines ran to settle d and to prove a bound, and one report ran none
    assert seen == {(True, False, True), (False, True, True),
                    (True, False, False), (False, True, False),
                    (False, False, None)}


def test_parse_budget():
    assert parse_budget("3^16") == 3 ** 16
    assert parse_budget("1000") == 1000
    assert parse_budget(81) == 81
    assert parse_budget("2^64") == 2 ** 64
    assert parse_budget("1^100000000") == 1


@pytest.mark.parametrize("text", ["3^100000000", "2^65", "-3^65", "3^-1",
                                  "0^3", "0", "-5", 2 ** 64 + 1, 0,
                                  # malformed text, not Python's int() message
                                  "abc", "3^", "^3", "3^1.5", "3^2^2", ""])
def test_parse_budget_rejects_out_of_range(text):
    with pytest.raises(ValueError, match="in 1..2\\^64"):
        parse_budget(text)


def test_budget_validation():
    with pytest.raises(ValueError, match="max_message_enum = 0 must be at least 1"):
        SearchBudget(max_message_enum=0)
    with pytest.raises(ValueError, match="max_column_weight = -1 must be at least 0"):
        SearchBudget(max_column_weight=-1)
    # a column search to weight 0 runs no level: the bounds alone remain
    assert SearchBudget(max_column_weight=0).max_column_weight == 0


def test_gf9_enumeration_small():
    # [5,2,4] over GF(9): companion code at rho=5
    b = build_family1(5)
    wd = weight_distribution(b.companion)
    assert sum(wd.values()) == 9 ** 2
    assert min_weight(b.companion) == distance_report(b.companion).d == 4
    assert min_weight(b.companion_dual) == distance_report(b.companion_dual).d == 3


def test_bch_lower_bounds_exact_distance():
    for code in (NegacyclicCode.from_check(GF3, 10, [1]),
                 build_family3(3, 13).code,
                 build_family4(3, 3).code):
        v, b = code.best_bch_multiplier()
        assert b <= distance_report(code).d


# ---------------------------------------------------------------------------
# property tests: the enumerator against direct encoding of every message

FIELDS = {"GF(3)": make_field(3, 1), "GF(9)": make_field(3, 2),
          "GF(5)": make_field(5, 1)}
# fields of the random generator matrices: GF(4) adds q - 1 = 3 scalar
# multiples per class in characteristic 2
MATRIX_FIELDS = {**FIELDS, "GF(4)": make_field(2, 2)}
MAX_MESSAGES = 3 ** 8


@functools.lru_cache(maxsize=None)
def _small_cosets(name, n, lam):
    """(leader, size) of each eligible coset that alone keeps q^k within
    MAX_MESSAGES, for lengths whose host field has degree <= 4."""
    f = FIELDS[name]
    R = 2 * n if lam == -1 else n
    if math.gcd(R, f.p) != 1 or mult_order(f.order, R) > 4:
        return ()
    table = build_cosets(f.order, R)
    return tuple((l, len(table.cosets[l])) for l in table.leaders
                 if (lam == 1 or l % 2)
                 and f.order ** len(table.cosets[l]) <= MAX_MESSAGES)


@st.composite
def small_codes(draw):
    """(field, n, lambda, check leaders) of a constacyclic code, q^k small."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    lam = draw(st.sampled_from((-1, 1)))
    n = draw(st.sampled_from([n for n in range(2, 100)
                              if _small_cosets(name, n, lam)]))
    cosets = draw(st.permutations(_small_cosets(name, n, lam)))
    size = draw(st.integers(1, len(cosets)))
    q, leaders, k = FIELDS[name].order, [], 0
    for leader, c in cosets[:size]:
        if q ** (k + c) <= MAX_MESSAGES:
            leaders.append(leader)
            k += c
    return name, n, lam, tuple(sorted(leaders))


def _code(spec):
    name, n, lam, leaders = spec
    return NegacyclicCode.from_check(FIELDS[name], n, leaders, lam)


def direct_oracle(code):
    """Encode all q^k messages by field-table arithmetic (message index m has
    base-q digit r on generator row r); return the weight distribution, d
    and all the words."""
    t = code.field.tables()
    idx = np.arange(t.q ** code.k)
    words = np.zeros((len(idx), code.n), dtype=t.dtype)
    for r, row in enumerate(code.rows()):
        digit = (idx // t.q ** r) % t.q
        words = t.add[words, t.mul[digit[:, None], row[None, :]]]
    weights = np.count_nonzero(words, axis=1)
    hist = {int(w): int(c) for w, c in
            zip(*np.unique(weights, return_counts=True))}
    return hist, int(weights[1:].min()), words


@settings(max_examples=40, deadline=None)
@given(small_codes())
@example(("GF(3)", 91, -1, (91,)))     # k = 1, n > 64: two plane words
@example(("GF(5)", 3, -1, (3,)))       # k = 1
@example(("GF(9)", 80, 1, (0, 40)))    # n > 64 over GF(9)
@example(("GF(3)", 13, -1, (13,)))     # host GF(27): p divides m_h/m_l = 3
def test_weight_distribution_matches_direct_encoding(spec):
    code = _code(spec)
    hist, d, words = direct_oracle(code)
    wd = weight_distribution(code)
    assert wd == hist and list(wd) == sorted(wd)   # weights ascending
    assert sum(wd.values()) == code.field.order ** code.k
    _check_info_set(code, d)
    # the one span builder lists the same words in the same order, and the
    # trace form (spanned from k trace rows) gives the same set
    assert np.array_equal(code.codewords(), words)
    assert code.trace_code_set() == set(map(tuple, words.tolist()))


def _check_inner_blocks(code):
    hist, *_ = direct_oracle(code)
    # at _CHUNK = 1 one inner row stays, and the walk takes one pinned sum
    # per scalar class of the other k - 1 rows
    for chunk in CHUNKS:
        with mock.patch.object(distance, "_CHUNK", chunk):
            assert weight_distribution(code) == hist


@settings(max_examples=25, deadline=None)
@given(small_codes())
@example(("GF(3)", 91, -1, (1, 91)))
@example(("GF(3)", 91, -1, (91,)))     # k = 1, n > 64: no outer row
@example(("GF(5)", 3, -1, (3,)))       # k = 1
def test_enum_independent_of_inner_block(spec):
    _check_inner_blocks(_code(spec))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_enum_on_random_generator_matrices(data):
    # unlike the shifted rows of a constacyclic code, random rows can put the
    # first minimum-weight message at the start of an inner block
    name = data.draw(st.sampled_from(sorted(MATRIX_FIELDS)))
    field = MATRIX_FIELDS[name]
    k = data.draw(st.integers(1, {3: 8, 9: 4, 5: 5, 4: 5}[field.order]))
    n = data.draw(st.integers(1, 80))
    digits = st.integers(0, field.order - 1)
    rows = data.draw(st.lists(st.lists(digits, min_size=n, max_size=n),
                              min_size=k, max_size=k))
    _check_inner_blocks(LinearCode(field, np.array(rows)))


def _pack_oracle(hot):
    """Booleans (..., L, s), digit j of entry i, packed one bit at a time
    into uint64 words (W, ...): bit s*(i % E) + j of word i // E, with
    E = 64 // s entries a word."""
    *lead, L, s = hot.shape
    E = 64 // s
    out = np.zeros(tuple(lead) + (-(-L // E),), dtype=np.uint64)
    for i in range(L):
        for j in range(s):
            out[..., i // E] |= (hot[..., i, j].astype(np.uint64)
                                 << np.uint64(s * (i % E) + j))
    return np.moveaxis(out, -1, 0)


def _planes_oracle(tables, rows):
    """The span's planes by way of the int8 table: every word of the rows
    (span_rows), split into power-basis digits with FieldElement.coeffs and
    packed as one one-hot plane per digit value."""
    field = tables.field
    coeffs = np.array([field.from_int(e).coeffs for e in range(tables.q)])
    A = coeffs[span_rows(tables, rows)]                # (q^k, n, s)
    return np.stack([_pack_oracle(A == v) for v in range(field.p)])


def _columns(planes):
    """The vectors of planes (p, W, N) as a sorted list of bytes: a multiset
    that ignores their order."""
    return sorted(c.tobytes() for c in planes.reshape(-1, planes.shape[-1]).T)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("name,k", [("GF(3)", 12), ("GF(9)", 6), ("GF(5)", 8)])
def test_inner_planes_match_int8_table(name, k, n):
    # the inner block of a k-row code, the span of its first ceil(k/2) rows
    # (colex tables side by side), holds the words span_rows lists
    tables = FIELDS[name].tables()
    p, s = tables.field.p, tables.field.m
    rng = np.random.default_rng(1000 * tables.q + n)
    rows = rng.integers(0, tables.q, size=(k, n)).astype(tables.dtype)[:-(-k // 2)]
    valid = _pack_oracle(np.ones((n, s), dtype=bool))
    planes = distance._span_planes(tables, rows)
    assert planes.shape == (p, distance._words(n, s), tables.q ** len(rows))
    assert _columns(planes) == _columns(_planes_oracle(tables, rows))
    assert not (planes & ~valid[:, None]).any()  # padding bits are zero


# GF(8) and GF(27) have s = 3 digits an entry, 21 entries a word and a
# spare bit 63
KERNEL_FIELDS = {**MATRIX_FIELDS, "GF(2)": make_field(2, 1),
                 "GF(8)": make_field(2, 3), "GF(27)": make_field(3, 3)}


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_plane_add_matches_add_table(name):
    # every pair (a, b) of elements, as two vectors of q^2 entries
    tables = KERNEL_FIELDS[name].tables()
    a, b = np.divmod(np.arange(tables.q ** 2), tables.q)
    x, y = (distance._digit_planes(tables, v) for v in (a, b))
    want = distance._digit_planes(tables, tables.add[a, b])
    assert np.array_equal(distance._plane_add(x, y), want)
    assert np.array_equal(distance._plane_add(x, y, (0,)), want[:1])
    # _zero_counts of plane 0 counts the zero entries of each sum, here of
    # random vectors of 130 entries, a few words long
    a, b = np.random.default_rng(tables.q).integers(0, tables.q, (2, 40, 130))
    z = distance._plane_add(*(distance._digit_planes(tables, v) for v in (a, b)),
                            (0,))[0]
    zeros = distance._zero_counts(z, tables.field.m, np.empty_like(z))
    assert np.array_equal(zeros, (tables.add[a, b] == 0).sum(axis=1))


@pytest.mark.parametrize("L", [2 ** 15, 40000])
@pytest.mark.parametrize("name", ["GF(2)", "GF(3)", "GF(9)", "GF(27)"])
def test_zero_counts_past_int16(name, L):
    # L zero entries: the sum over word rows outgrows int16
    tables = KERNEL_FIELDS[name].tables()
    z = distance._digit_planes(tables, np.zeros((2, L), dtype=tables.dtype))[0]
    assert distance._zero_counts(z, tables.field.m, np.empty_like(z)).tolist() == [L, L]


def test_weight_distribution_past_int16_zeros():
    # a [33000,2] code: row 0 all ones, row 1 = (0, 1, 1, 1, 1, 0, ...); the
    # zero word's 33000 zero entries outgrow int16
    rows = np.zeros((2, 33000), dtype=np.int64)
    rows[0], rows[1, 1:5] = 1, 1
    assert weight_distribution(LinearCode(GF3, rows)) == {
        0: 1, 4: 2, 32996: 2, 33000: 4}


@pytest.mark.parametrize("L", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_digit_planes_decode_to_their_input(name, L):
    # entry i has bits s*e .. s*e + s - 1 of word i // E (E = 64 // s,
    # e = i % E), bit s*e + j for its digit j
    tables = KERNEL_FIELDS[name].tables()
    p, s = tables.field.p, tables.field.m
    E, W = 64 // s, -(-L // (64 // s))
    words = np.random.default_rng(L).integers(0, tables.q, size=(3, L))
    planes = distance._digit_planes(tables, words)
    assert planes.shape == (p, W, 3) and distance._words(L, s) == W
    bits = np.unpackbits(np.moveaxis(planes, 1, -1).copy().view(np.uint8),
                         axis=-1, bitorder="little").reshape(p, 3, W, 64)
    assert not bits[..., E * s:].any()  # the spare bit 63 when s = 3 is zero
    bits = bits[..., :E * s].reshape(p, 3, W * E, s)
    assert not bits[:, :, L:].any()  # padding entries are zero
    bits = bits[:, :, :L].astype(np.int64)
    assert (bits.sum(axis=0) == 1).all()  # one value per digit
    digits = np.tensordot(np.arange(p), bits, axes=(0, 0))  # (3, L, s)
    assert np.array_equal(digits @ p ** np.arange(s), words)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_outer_messages_one_per_scalar_class(q):
    # the pinned j-term sums of K unit rows, j = 1..K, as the walk takes
    # them, are the messages whose top nonzero digit is the field's one
    # (element index 1): one per scalar class of the q^K - 1 nonzero ones
    tables = KERNEL_FIELDS[f"GF({q})"].tables()
    for K in range(1, 5):
        planes, colex = distance._multiple_planes(
            tables, np.eye(K, dtype=tables.dtype)), []
        distance._colex_grow(colex, planes, q, K - 1)
        got = [distance._colex_entries(colex, planes, q, j, np.arange(
            distance._colex_size(K, j, q, pinned=True)), pinned=True)[0]
            for j in range(1, K + 1)]
        msgs = np.array(list(itertools.product(range(q), repeat=K)),
                        dtype=tables.dtype).reshape(-1, K)
        top = [next((v for v in m[::-1] if v), 0) for m in msgs.tolist()]
        want = distance._digit_planes(tables, msgs[np.equal(top, 1)])
        assert want.shape[-1] == (q ** K - 1) // (q - 1)
        assert _columns(np.concatenate(got, axis=-1)) == _columns(want)


@pytest.mark.parametrize("name", ["GF(3)", "GF(9)", "GF(5)", "GF(4)"])
def test_enum_walks_one_outer_message_per_scalar_class(name):
    # a [70,4] code keeps two inner rows, and one at _CHUNK = 1: the walk
    # asks for (q^K - 1)/(q - 1) pinned sums of the K outer rows and encodes
    # no message
    field = MATRIX_FIELDS[name]
    rng = np.random.default_rng(field.order)
    k = 4
    code = LinearCode(field, rng.integers(0, field.order, size=(k, 70)))
    hist, *_ = direct_oracle(code)
    q = field.order
    for chunk, K in ((distance._CHUNK, 2), (1, 3)):
        with mock.patch.object(distance, "_CHUNK", chunk), \
                mock.patch.object(distance, "encode_rows",
                                  wraps=distance.encode_rows) as enc, \
                mock.patch.object(distance, "_colex_entries",
                                  wraps=distance._colex_entries) as entries:
            assert weight_distribution(code) == hist
        assert enc.call_count == 0
        assert sum(len(c.args[4]) for c in entries.call_args_list
                   if c.kwargs.get("pinned")) == (q ** K - 1) // (q - 1)


@pytest.mark.parametrize("name", ["GF(3)", "GF(9)", "GF(5)", "GF(4)"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_inner_block_takes_half_the_rows(name, k):
    # the inner block spans ceil(k/2) rows while its q^k_in words fit one
    # run of _CHUNK plane words (here one word each), and at least one row
    field = MATRIX_FIELDS[name]
    code, q = LinearCode(field, np.ones((k, 10), dtype=np.int64)), field.order
    # at _CHUNK = q - 1 the inner block's q words take two runs, the last
    # of one word
    for chunk in (distance._CHUNK, q ** 2, q - 1, 1):
        with mock.patch.object(distance, "_CHUNK", chunk), \
                mock.patch.object(distance, "_span_planes",
                                  wraps=distance._span_planes) as span:
            # a message is c times the all-one word, c its digit sum
            assert weight_distribution(code) == {0: q ** (k - 1),
                                                 10: q ** k - q ** (k - 1)}
        fits = max(h for h in range(k + 1) if q ** h <= chunk)
        assert len(span.call_args.args[1]) == max(1, min(-(-k // 2), fits))


# ---------------------------------------------------------------------------
# the colex tables of both engines (_colex_entries) against itertools

def _colex_oracle(k, j, q, pinned):
    """(rows, coefficients) of every j-term sum of k rows with nonzero
    coefficients (pinned: top coefficient 1), in colex order: by top row,
    then top coefficient, then the order of the sum below them."""
    return sorted(((sub, co) for sub in itertools.combinations(range(k), j)
                   for co in itertools.product(range(1, q), repeat=j)
                   if not pinned or co[-1] == 1),
                  key=lambda e: list(zip(e[0][::-1], e[1][::-1])))


def _check_colex(tables, R, rng):
    """T_1..T_4 and the pinned 1..4-term sums of the rows of R, whose
    c * row l planes _multiple_planes holds at index c*k + l, with the
    tables filled up to T_0, T_2 and T_4 (_colex_grow stops before the first
    table over _TABLE_WORDS): entries up to T_built are read, the others
    recomputed from them.  Each entry, taken in a random order, is the sum
    of c * row l over the rows and coefficients of the oracle's entry of
    that rank and _colex_unrank's, its least row is their least, and the
    sums on rows [0, l) are the first _colex_offsets[l] entries."""
    q, (k, r) = tables.q, R.shape
    cplanes = distance._multiple_planes(tables, R)
    sizes = [distance._colex_size(k, j, q) * cplanes.shape[1] for j in range(5)]
    colexes = []
    for built in (0, 2, 4):
        cap = max(sizes[1:built + 1], default=0)
        colex = []
        with mock.patch.object(distance, "_TABLE_WORDS", cap):
            distance._colex_grow(colex, cplanes, q, 4)
        assert len(colex) == next((j for j in range(1, 5) if sizes[j] > cap), 5)
        colexes.append(colex)
    for j in range(1, 5):
        for pinned in (False, True):
            want = _colex_oracle(k, j, q, pinned)
            assert [tuple(map(tuple, distance._colex_unrank(i, j, q, pinned)))
                    for i in range(len(want))] == want
            assert distance._colex_offsets(k, j, q, pinned).tolist() == [
                sum(sub[-1] < l for sub, _ in want) for l in range(k + 1)]
            rows, co = (np.array([e[i] for e in want], dtype=np.int64).reshape(-1, j)
                        for i in (0, 1))
            vec = np.zeros((len(want), r), dtype=np.int64)
            for i in range(j):
                vec = tables.add[vec, tables.mul[co[:, i, None], R[rows[:, i]]]]
            idx = rng.permutation(len(want))
            sums = distance._digit_planes(tables, vec)[..., idx]
            for colex in colexes:
                planes, least = distance._colex_entries(colex, cplanes, q, j,
                                                        idx, pinned)
                assert planes.shape[-1] == len(want)
                if want:
                    assert np.array_equal(planes, sums)
                    assert np.array_equal(least, rows[idx, 0])


@pytest.mark.parametrize("name,n", [
    (name, n) for name in sorted(KERNEL_FIELDS) for n in (1, 2, 4, 6)
    # past 40 k sums of 4 columns (8^4 * C(6, 4) over GF(9)): a slow oracle
    if (KERNEL_FIELDS[name].order - 1) ** 4 * math.comb(n, 4) <= 40_000])
def test_side_enumerates_every_entry_in_order(name, n):
    # the column search's sides: the sums of up to 4 of n columns of 5
    # entries (none when n < j), the rows of H^T, in one word
    tables = KERNEL_FIELDS[name].tables()
    rng = np.random.default_rng(tables.q * 10 + n)
    vecs = rng.integers(0, tables.q, size=(n, 5)).astype(tables.dtype)
    _check_colex(tables, vecs, rng)


# ---------------------------------------------------------------------------
# property tests: the column search against enumeration

def _dual_low_weights(hist, n, q, k, w_max):
    """A'_j for j <= w_max of the dual, from the code's weight distribution
    by the MacWilliams transform (Krawtchouk sums)."""
    out = {}
    for j in range(1, w_max + 1):
        total = sum(a * sum((-1) ** s * (q - 1) ** (j - s) * math.comb(i, s)
                            * math.comb(n - i, j - s) for s in range(j + 1))
                    for i, a in hist.items())
        assert total % q ** k == 0
        out[j] = total // q ** k
    return out


def _affordable_weight(n, q):
    """Largest w <= 6 whose two sides stay within a few 10^5 entries."""
    return max(w for w in range(1, 7)
               if math.comb(n, w // 2) * (q - 1) ** (w // 2)
               + math.comb(n, w - w // 2) * (q - 1) ** (w - w // 2 - 1)
               <= 150_000)


def _check_column_search(code, d, w):
    """low_weight_search up to w finds d with a weight-d codeword witness
    when d <= w, and reports lower = w + 1 otherwise; codes whose syndromes
    take more than one word per plane (r > 64 // s) are refused."""
    q, r = code.field.order, code.n - code.k
    if r > 64 // code.field.m:
        with pytest.raises(CodeError, match="syndrome space"):
            low_weight_search(code, w)
        return
    rep = low_weight_search(code, w)
    if d <= w:
        assert rep.exact and rep.lower == d
        assert len(rep.witness) == code.n
        assert all(0 <= v < q for v in rep.witness)
        assert sum(1 for v in rep.witness if v) == d
        assert code.contains(rep.witness)
    else:
        assert not rep.exact and rep.lower == w + 1 and rep.witness is None


@settings(max_examples=30, deadline=None)
@given(small_codes())
@example(("GF(3)", 91, -1, (91,)))     # n > 64: the code fails the guard
@example(("GF(5)", 16, 1, (1,)))       # five planes, d = 4 found
@example(("GF(3)", 40, -1, (5,)))      # 36 check digits: 72 one-hot bits
def test_column_search_agrees_with_enumeration(spec):
    # the code (low rate, q^k small) against its enumerated distance, and
    # its dual (high rate, r = k small) against the MacWilliams transform
    code = _code(spec)
    q, n = code.field.order, code.n
    hist = weight_distribution(code)
    w = _affordable_weight(n, q)
    _check_column_search(code, min(v for v in hist if v), w)
    dual = code.dual()
    low = _dual_low_weights(hist, n, q, code.k, w)
    _check_column_search(dual, min([j for j in low if low[j]] or [w + 1]), w)


def _planted_code():
    """[40,4] ternary code with 36 check digits (two one-hot planes need 72
    bits) whose first row has weight 3, so d <= 3."""
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 3, (4, 40))
    rows[0] = 0
    rows[0, [7, 19, 33]] = [1, 2, 2]
    return LinearCode(GF3, rows)


def test_column_search_finds_planted_word_past_32_check_digits():
    code = _planted_code()
    rep = low_weight_search(code, 4)
    assert rep.exact and rep.lower == 3
    assert code.contains(rep.witness)
    assert [i for i, v in enumerate(rep.witness) if v] == [7, 19, 33]


@pytest.mark.parametrize("q", [3, 9])
def test_column_search_fills_one_syndrome_word(q):
    # [r + 4, 4] codes whose first row has weight 3: at r = 64 // s, 64 over
    # GF(3) and 32 over GF(9), a syndrome fills its plane word and the
    # planted word is found; one check digit more is refused
    field = make_field(3, {3: 1, 9: 2}[q])
    rng = np.random.default_rng(q)
    for r in (64 // field.m, 64 // field.m + 1):
        rows = rng.integers(0, q, (4, r + 4))
        rows[0] = 0
        rows[0, [2, r // 2, r + 3]] = [1, q - 1, 2]
        code = LinearCode(field, rows)
        if r > 64 // field.m:
            with pytest.raises(CodeError, match="syndrome space"):
                low_weight_search(code, 3)
            continue
        rep = low_weight_search(code, 3)
        assert rep.exact and rep.lower == 3 and code.contains(rep.witness)
        assert [i for i, v in enumerate(rep.witness) if v] == [2, r // 2, r + 3]


def test_column_search_words_survive_colliding_keys():
    # every hash equal: each left entry matches each right one, and only
    # the plane-by-plane comparison separates them
    b1 = build_family1(5)
    cases = [(_planted_code(), 3),
             (NegacyclicCode.from_check(GF3, 10, [1]).dual(), 4),   # d = 4
             (NegacyclicCode.from_check(GF3, 10, [1]), 3),          # d = 6
             (b1.companion_dual, 3),                                # GF(9), d = 3
             (_code(("GF(5)", 16, 1, (1,))), 4)]                    # GF(5), d = 4
    for code, w in cases:
        want = low_weight_search(code, w)
        with mock.patch.object(distance, "_mix",
                               lambda planes: np.zeros(planes.shape[1], np.uint64)):
            got = low_weight_search(code, w)
        assert (got.lower, got.exact, got.witness) == (
            want.lower, want.exact, want.witness)


# ---------------------------------------------------------------------------
# the information-set search against the weight distribution and the column
# search

def _check_info_set(code, d):
    """information_set_search finds d with a weight-d codeword witness."""
    _check_witness(code, information_set_search(code), d)


def _check_witness(code, rep, d):
    assert (rep.exact, rep.lower, rep.upper) == (True, d, d)
    assert rep.method == "information-set" and rep.work > 0
    assert len(rep.witness) == code.n
    assert all(0 <= v < code.field.order for v in rep.witness)
    assert sum(1 for v in rep.witness if v) == d
    assert code.contains(rep.witness)


@settings(max_examples=40, deadline=None)
@given(small_codes())
@example(("GF(3)", 10, 1, (0, 1)))     # stops at L(w) = d exactly
@example(("GF(5)", 12, 1, (0, 1)))
@example(("GF(9)", 80, 1, (0, 40)))    # n > 64 over GF(9)
@example(("GF(3)", 4, -1, (1, 5)))     # the full space: no redundancy
@example(("GF(3)", 91, -1, (91,)))     # r = 90: two plane words
def test_information_set_agrees_with_enumeration(spec):
    code = _code(spec)
    _check_info_set(code, min_weight(code))


# the family-2/3 example codes with 51 to 170 check digits, with their
# distances: 3^r passes 2^62, and, but for the first, r passes the column
# search's guard of one syndrome word per plane (r <= 64)
GUARDED = {"family2 l=5 n=61": (lambda: build_family2(5, 61).code, 31),
           "family2 l=4 n=82": (lambda: build_family2(4, 82).code, 48),
           "family3 m=5 n=121": (lambda: build_family3(5, 121).code, 71),
           "family2 l=5 n=122": (lambda: build_family2(5, 122).code, 71),
           "family3 m=6 n=182": (lambda: build_family3(6, 182).code, 104)}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_information_set_has_no_redundancy_limit(name):
    build, d = GUARDED[name]
    code = build()
    assert code.field.order ** (code.n - code.k) >= 2 ** 62
    assert min_weight(code) == d
    _check_info_set(code, d)


@st.composite
def random_codes(draw, n_max):
    """A LinearCode of k random rows of length k..n_max over a kernel
    field, q^k small; its rows may be linearly dependent."""
    field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    k = draw(st.integers(
        1, {2: 10, 3: 7, 4: 5, 5: 4, 8: 3, 9: 3, 27: 2}[field.order]))
    n = draw(st.integers(k, n_max))
    digits = st.integers(0, field.order - 1)
    rows = draw(st.lists(st.lists(digits, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return LinearCode(field, np.array(rows))


def _full_rank(code):
    return len(rref(code.field.tables(), code.rows())[1]) == code.k


@settings(max_examples=60, deadline=None)
@given(random_codes(150))
def test_information_set_on_random_generator_matrices(code):
    # any linear code: the pivots of rref are the one information set, so
    # L(w) = w + 1; rows of rank < k are refused
    if not _full_rank(code):
        with pytest.raises(CodeError, match="linearly dependent"):
            information_set_search(code)
        return
    _check_info_set(code, min_weight(code))


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_engines_match_span_rows_on_random_codes(name):
    # random [k + r, k] codes with r = 4 and r = 64 // s + 1, one entry past
    # a plane word: the weight distribution and the d of both searches (the
    # column search refuses the second code, past its one-word guard)
    # against every word that span_rows lists
    field = KERNEL_FIELDS[name]
    tables, q = field.tables(), field.order
    k = {2: 8, 3: 6, 4: 4, 5: 4, 8: 3, 9: 3, 27: 2}[q]
    rng = np.random.default_rng(q)
    for r in (4, 64 // field.m + 1):
        code = LinearCode(field, rng.integers(0, q, size=(k, k + r)))
        while not _full_rank(code):
            code = LinearCode(field, rng.integers(0, q, size=(k, k + r)))
        weights = np.count_nonzero(span_rows(tables, code.rows()), axis=1)
        assert weight_distribution(code) == {
            int(w): int(c) for w, c in zip(*np.unique(weights, return_counts=True))}
        d = int(weights[weights > 0].min())
        _check_info_set(code, d)
        _check_column_search(code, d, d)


HIGH_RATE_DUALS = {"family2 l=4 n=41": lambda: build_family2(4, 41).dual,
                   "family2 l=3 n=28": lambda: build_family2(3, 28).dual,
                   "family2 l=4 n=82": lambda: build_family2(4, 82).dual,
                   "family3 m=4 n=40": lambda: build_family3(4, 40).dual}


@pytest.mark.parametrize("name", sorted(HIGH_RATE_DUALS))
def test_information_set_agrees_with_column_search(name):
    code = HIGH_RATE_DUALS[name]()
    _check_info_set(code, low_weight_search(code, 6).d)


@pytest.fixture(scope="module")
def family1_rho17():
    return build_family1(17)


def _table2_rows(b17, b19):
    """The rho = 17, 19 rows that neither enumeration at 3^16 nor the column
    search to weight 6 settles, with their Table 2 distances."""
    return [(b17.dual, 10), (b17.companion_dual, 7), (b19.code, 10),
            (b19.dual, 9), (b19.companion, 10), (b19.companion_dual, 9)]


def test_information_set_settles_table2_rows(family1_rho17, family1_rho19):
    for code, d in _table2_rows(family1_rho17, family1_rho19):
        _check_info_set(code, d)


def test_information_set_wrong_bound_is_caught(family1_rho17, family1_rho19):
    # a bound one too high (one r_j off by one) stops a level too early on
    # some code, so some comparison above must fail
    cases = _table2_rows(family1_rho17, family1_rho19)
    cases += [(_code(spec), min_weight(_code(spec)))
              for spec in (("GF(3)", 10, 1, (0, 1)), ("GF(5)", 12, 1, (0, 1)))]
    real = distance._info_set_bound
    with mock.patch.object(distance, "_info_set_bound",
                           lambda n, k, w: real(n, k, w) + 1):
        got = [information_set_search(code).d for code, _ in cases]
    assert got != [d for _, d in cases]


def test_information_set_declines(family1_rho19):
    # the [38,20] dual needs 6.5 M words to pass the packing bound
    assert information_set_search(family1_rho19.dual,
                                  SearchBudget(max_message_enum=3 ** 14)) is None
    # a plain LinearCode is admitted: the rows of the [10,4,6] code, with
    # the one window of its pivots
    rows = NegacyclicCode.from_check(GF3, 10, [1]).rows()
    _check_info_set(LinearCode(GF3, rows), 6)
    # so is every code whose q^k fits the budget, over every field
    for code in (build_family1(7).code, build_family1(5).companion,
                 _code(("GF(5)", 12, 1, (0, 1)))):
        budget = SearchBudget(max_message_enum=code.field.order ** code.k)
        assert information_set_search(code, budget).d == min_weight(code)


def _check_reach(code):
    """information_set_search with every reach D in 0..packing bound: its
    lower bound never exceeds d; an inexact report stops at the first level
    W with disjoint-window L(W) > D and reports the all-shift bound there,
    at least L(W), with no witness; an exact one carries a weight-d
    witness."""
    q, k, n = code.field.order, code.k, code.n
    d = min_weight(code)
    span = n if isinstance(code, ConstacyclicCode) else k
    for D in range(sphere_packing_max_d(n, k, q) + 1):
        rep = information_set_search(code, d_max=D)
        assert rep.lower <= d
        if rep.exact:
            _check_witness(code, rep, d)
            continue
        W = int(rep.lower_src.removeprefix("information-set w<="))
        assert rep.lower_src == f"information-set w<={W}" and W < k
        assert rep.lower == distance._info_set_bound(span, k, W)
        assert rep.lower >= distance._window_bound(span, k, W) > D
        assert W == 0 or distance._window_bound(span, k, W - 1) <= D
        assert (rep.method, rep.upper, rep.witness) == ("information-set", n, None)


@settings(max_examples=40, deadline=None)
@given(small_codes())
@example(("GF(3)", 10, 1, (0, 1)))
@example(("GF(9)", 80, 1, (0, 40)))
@example(("GF(3)", 4, -1, (1, 5)))     # the full space: no redundancy
def test_information_set_reach_is_sound(spec):
    _check_reach(_code(spec))


@settings(max_examples=40, deadline=None)
@given(random_codes(100))
def test_information_set_reach_is_sound_on_random_generator_matrices(code):
    if _full_rank(code):
        _check_reach(code)


# ---------------------------------------------------------------------------
# the information-set search's colex tables

@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_colex_table_unranks_every_entry(name):
    # the sums of up to 4 of k random redundancy rows, in one word (r = 5;
    # r = 30 but over GF(8) and GF(27), where it takes two) and in two to
    # four words (r = 70)
    tables = KERNEL_FIELDS[name].tables()
    q = tables.q
    k = {8: 4, 9: 4, 27: 3}.get(q, 6)   # (q - 1)^4 C(k, 4) entries: a slow oracle
    rng = np.random.default_rng(q)
    for r in (5, 30, 70):
        R = rng.integers(0, q, size=(k, r)).astype(tables.dtype)
        _check_colex(tables, R, rng)


def test_information_set_wrong_prefix_is_caught(family1_rho17):
    # a prefix one row too long, C(u + 1, t)(q - 1)^t, pairs top parts with
    # bottom parts on their own least row: the words counted, or the
    # witness check, give it away on every code.  Only the offsets the
    # search reads itself shift; its tables keep the true ones
    codes = [family1_rho17.dual, family1_rho17.companion_dual,
             _code(("GF(3)", 10, 1, (0, 1))), _code(("GF(5)", 12, 1, (0, 1)))]
    want = [(rep.d, rep.work) for rep in map(information_set_search, codes)]
    got, real = [], distance._colex_offsets

    def offsets(k, j, q, pinned=False):
        if not pinned and sys._getframe(1).f_code is information_set_search.__code__:
            return real(k + 1, j, q)[1:]           # C(u + 1, j)(q - 1)^j at u
        return real(k, j, q, pinned)

    with mock.patch.object(distance, "_colex_offsets", offsets):
        for code in codes:
            try:
                rep = information_set_search(code)
            except AssertionError:
                got.append(None)
            else:
                got.append((rep.d, rep.work))
    assert all(g != w for g, w in zip(got, want))


def _check_table_caps(code):
    """With the table capped at 2^4 or 2^10 plane words (top parts of two
    or more rows run wherever T_(w-1) does not fit), every report, exact
    and with each reach D < d (a reach of d or more ends exact), keeps its
    bounds, d and work."""
    reaches = [None] + list(range(information_set_search(code).d))

    def reports():
        return [(rep.lower, rep.upper, rep.exact, rep.work, rep.lower_src)
                for rep in (information_set_search(code, d_max=D)
                            for D in reaches)]
    want = reports()
    for cap in (1 << 4, 1 << 10):
        with mock.patch.object(distance, "_TABLE_WORDS", cap):
            assert reports() == want


def test_information_set_table_cap_runs_long_top_parts(family1_rho17):
    # [34,18] (levels to 4, where ceil(34 * 5 / 18) = 10 = d) under a cap
    # of 2^9 words holds T_1 and pairs it with top parts of up to three
    # rows; [17,9] over GF(9) under 2^4 holds only T_0, so its top parts are
    # whole messages, built recursively.  With blocks of 2^10 plane words
    # (half a run of 2^11), every block of top parts but the last of its
    # level is full.
    for code, cap, t in ((family1_rho17.dual, 1 << 9, 1),
                         (family1_rho17.companion_dual, 1 << 4, 0)):
        want = information_set_search(code)
        with mock.patch.object(distance, "_TABLE_WORDS", cap), \
                mock.patch.object(distance, "_CHUNK", 1 << 11), \
                mock.patch.object(distance, "_colex_entries",
                                  wraps=distance._colex_entries) as entries:
            got = information_set_search(code)
        assert (got.d, got.work) == (want.d, want.work)
        _check_witness(code, got, want.d)
        calls = entries.call_args_list
        assert len(calls[0].args[0]) == t + 1             # T_0..T_t built
        tops = [c.args[3:5] for c in calls if c.kwargs.get("pinned")]
        assert max(j for j, _ in tops) > t                # the recursive path
        full = (1 << 10) // len(calls[0].args[1])         # one word per plane
        levels = [[tops[0][1]]]
        for (_, prev), (_, ids) in zip(tops, tops[1:]):
            if ids[0] == prev[-1] + 1:
                levels[-1].append(ids)
            else:
                levels.append([ids])
        assert max(map(len, levels)) > 1
        for blocks in levels:
            assert all(len(ids) == full for ids in blocks[:-1])
            assert 0 < len(blocks[-1]) <= full
    # runs shorter than a prefix: at _CHUNK = 2^8 (one word per plane) the
    # [34,18] T_3 prefixes C(u, 3) 2^3 from u = 7 on span several runs of
    # 2^8 entries, the last one partial; every pair is visited once, so the
    # pairs the runs count add up to `work`, the prefix lengths summed
    code, real, runs = family1_rho17.dual, distance._pair_zeros, []

    def counted(X, Y, s, cap):
        for b0, x0, zeros in real(X, Y, s, cap):
            runs.append((X.shape[-1], cap, zeros.size))
            yield b0, x0, zeros

    want = information_set_search(code)
    with mock.patch.object(distance, "_CHUNK", 1 << 8), \
            mock.patch.object(distance, "_pair_zeros", counted):
        got = information_set_search(code)
    assert (got.d, got.work) == (want.d, want.work)
    _check_witness(code, got, want.d)
    assert sum(size for *_, size in runs) == want.work
    assert any(L > cap and L % cap for L, cap, _ in runs)


@settings(max_examples=20, deadline=None)
@given(small_codes())
@example(("GF(3)", 10, 1, (0, 1)))
@example(("GF(9)", 80, 1, (0, 40)))    # n > 64 over GF(9): worded planes
@example(("GF(3)", 4, -1, (1, 5)))     # the full space: no redundancy
def test_information_set_table_cap_changes_nothing(spec):
    _check_table_caps(_code(spec))


@settings(max_examples=20, deadline=None)
@given(random_codes(100))
def test_information_set_table_cap_changes_nothing_on_random_generator_matrices(code):
    if _full_rank(code):
        _check_table_caps(code)


# distance_report's choice: the engine that counts fewer words settles d
POLICY = {
    # low rate: a few dozen information-set words against thousands of
    # column-search entries
    "[10,4,6]": (lambda: NegacyclicCode.from_check(GF3, 10, [1]), 6,
                 "information-set"),
    "[13,6,6]": (lambda: build_family3(3, 13).code, 6, "information-set"),
    "[7,3,5] GF(9)": (lambda: build_family1(7).companion, 5, "information-set"),
    # high rate: k = 33..170 message digits against a search to weight 6
    "[41,33,5]": (lambda: build_family2(4, 41).dual, 5, "column-search"),
    "[122,112,5]": (lambda: build_family2(5, 122).dual, 5, "column-search"),
    "[182,170,5]": (lambda: build_family3(6, 182).dual, 5, "column-search"),
}


@pytest.mark.parametrize("name", sorted(POLICY))
def test_distance_report_runs_the_engine_that_counts_fewer_words(name):
    build, d, method = POLICY[name]
    rep = distance_report(build())
    assert (rep.exact, rep.d, rep.method) == (True, d, method)


def test_distance_report_tie_keeps_the_column_search():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    with mock.patch.object(distance, "_column_words", lambda n, q, w: 0), \
            mock.patch.object(distance, "_info_set_words", lambda n, k, q, d: 0):
        rep = distance_report(c)
    assert (rep.d, rep.method) == (6, "column-search")


@pytest.mark.parametrize("n", range(1, 13))
def test_info_set_bound_is_the_least_window_weight(n):
    # over all 2^n supports: L(w) is the least size of a support with at
    # least w + 1 positions in each disjoint window [jk, (j+1)k) mod n, and
    # the all-shift bound the least with w + 1 in each of the n windows
    # [j, j + k) mod n, so never below L(w)
    supports = np.arange(1 << n, dtype=np.uint64)
    sizes = np.bitwise_count(supports)

    def least(starts, k):
        windows = np.array([sum(1 << ((j + i) % n) for i in range(k))
                            for j in starts], dtype=np.uint64)
        return np.bitwise_count(supports[:, None] & windows).min(axis=1)
    for k in range(1, n + 1):
        disjoint, every = least(range(0, n, k), k), least(range(n), k)
        for w in range(k):
            assert distance._window_bound(n, k, w) == sizes[disjoint > w].min()
            assert distance._info_set_bound(n, k, w) == sizes[every > w].min()
            assert distance._info_set_bound(n, k, w) >= distance._window_bound(n, k, w)


# every codeword of the negacyclic and cyclic codes of length n <= 20 over
# these fields whose q^k words fit BRUTE_WORDS and whose host field has
# degree <= 6: 1143 codes
BRUTE_FIELDS = {2: make_field(2, 1), 3: GF3, 4: make_field(2, 2),
                5: make_field(5, 1), 9: make_field(3, 2)}
BRUTE_WORDS = 3 ** 7


@pytest.fixture(scope="module")
def brute_codes():
    """(code, its nonzero words) for every proper nonzero code above."""
    out = []
    for q, field in sorted(BRUTE_FIELDS.items()):
        for lam in (1,) if field.p == 2 else (-1, 1):
            for n in range(2, 21):
                R = 2 * n if lam == -1 else n
                if math.gcd(R, field.p) != 1 or mult_order(q, R) > 6:
                    continue
                table = build_cosets(q, R)
                leaders = [l for l in table.leaders if lam == 1 or l % 2]
                for size in range(1, len(leaders)):
                    for pick in itertools.combinations(leaders, size):
                        k = sum(len(table.cosets[l]) for l in pick)
                        if q ** k <= BRUTE_WORDS:
                            code = NegacyclicCode.from_check(field, n, pick, lam)
                            out.append((code, code.codewords()[1:]))
    return out


def _bound_violations(brute_codes, bound):
    """Nonzero codewords with more than w nonzero entries on every window
    [j, j + k) mod n that weigh less than bound(n, k, w), over all w < k."""
    bad = 0
    for code, words in brute_codes:
        n, k = code.n, code.k
        ones = np.tile(words != 0, 2).cumsum(axis=1)
        on_window = ones[:, k - 1:k - 1 + n] - np.pad(ones[:, :n - 1], ((0, 0), (1, 0)))
        least, weights = on_window.min(axis=1), ones[:, n - 1]
        bad += sum(int((weights[least > w] < bound(n, k, w)).sum())
                   for w in range(k))
    return bad


def test_info_set_bound_holds_on_every_codeword(brute_codes):
    assert len(brute_codes) == 1143
    assert {c.field.order for c, _ in brute_codes} == set(BRUTE_FIELDS)
    assert _bound_violations(brute_codes, distance._info_set_bound) == 0
    # one more is too much: some word meets the bound exactly, so an
    # off-by-one bound fails this test
    assert _bound_violations(
        brute_codes, lambda n, k, w: -(-n * (w + 1) // k) + 1) > 0


def test_information_set_search_matches_brute_force(brute_codes):
    for code, words in brute_codes:
        d = int(np.count_nonzero(words, axis=1).min())
        _check_info_set(code, d)


# ---------------------------------------------------------------------------
# memory: the engines hold capped colex tables, and stream the rest in blocks

def _traced_peak(run):
    """Peak bytes that run() allocates, by tracemalloc (numpy arrays count)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def family3_m6_dual():
    code = build_family3(6, 182).dual     # [182,170,5]
    code.dual_rows()                      # outside the traced calls
    return code


def test_pinned_side_holds_only_its_prefixes(family3_m6_dual):
    # the C(182, 3) * 4 = 3,923,920 pinned 3-term column sums of [182,170]
    # hold only T_2, the 2-term sums they extend, and stream in the column
    # search's blocks (the 3-subsets alone took 24 MB as an (N, 3) int64
    # array)
    tables = GF3.tables()
    cplanes = distance._multiple_planes(
        tables, np.asarray(family3_m6_dual.dual_rows(), dtype=tables.dtype).T)
    n, p, colex = family3_m6_dual.n, len(cplanes), []
    distance._colex_grow(colex, cplanes, 3, 2)
    assert len(colex) == 3
    size = distance._colex_size(n, 3, 3, pinned=True)
    assert size == math.comb(n, 3) * 4

    def stream():
        for idx in distance._blocks(0, size, p):
            distance._colex_entries(colex, cplanes, 3, 3, idx, pinned=True)
    assert _traced_peak(stream) < 4 << 20


def test_column_search_memory_gate(family3_m6_dual):
    peak = _traced_peak(lambda: low_weight_search(family3_m6_dual, 5))
    assert peak < 20 << 20


def test_every_engine_call_of_a_verify_peaks_under_3_5_mib():
    # the engines' transient buffers (blocks of 2^14 plane words, runs of
    # 2^15) over their colex tables: the heaviest calls of a verify are the
    # [182,12] information-set search (3.2 MiB) and the [182,170] column
    # search (3.1 MiB), so blocks and runs of 2^16 words (5.2 MiB) fail
    peaks = {}

    def traced(engine):
        def run(code, *args, **kwargs):
            out = []
            peak = _traced_peak(lambda: out.append(engine(code, *args, **kwargs)))
            key = (engine.__name__, code.n, code.k, code.field.order)
            peaks[key] = max(peak, peaks.get(key, 0))
            return out[0]
        return run

    with mock.patch.object(distance, "low_weight_search",
                           traced(low_weight_search)), \
            mock.patch.object(distance, "information_set_search",
                              traced(information_set_search)):
        manifest = verify_claims("all")
    assert manifest.summary == {"match": 75, "lower-bound-only": 0,
                                "mismatch": 0, "external-unverified": 12}
    assert {("low_weight_search", 182, 170, 3), ("low_weight_search", 122, 112, 3),
            ("information_set_search", 182, 12, 3),
            ("information_set_search", 19, 10, 9)} <= set(peaks)
    over = {key: peak for key, peak in peaks.items() if peak > 3.5 * (1 << 20)}
    assert not over


def test_information_set_memory_gate(family1_large):
    # the rho = 31 [62,32] dual to reach 8: level 5 pairs 16 * C(32, 5)
    # words from top parts of two rows and the 1 MB colex table of 3-term
    # sums (the whole 13.8 MB table of 4-term sums took 21.9 MB); there the
    # bound over all 62 windows, ceil(62 * 6 / 32) = 12, meets the least
    # word found, so the search settles d after the words of levels 1..5
    code = family1_large[1].dual
    assert (code.n, code.k) == (62, 32)
    rep = []
    peak = _traced_peak(lambda: rep.append(information_set_search(code, d_max=8)))
    assert (rep[0].exact, rep[0].d, rep[0].work) == (
        True, 12, sum(math.comb(32, w) * 2 ** (w - 1) for w in range(1, 6)))
    assert peak < 8 << 20
