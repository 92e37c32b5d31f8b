import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest

from negacyclic import cli, families, poly

from negacyclic.cli import main
from negacyclic.codes import CodeError, LinearCode, NegacyclicCode
from negacyclic.cosets import build_cosets
from negacyclic.distance import (DistanceReport, SearchBudget, distance_report,
                                 weight_distribution)
from negacyclic.families import Claim, build_family1
from negacyclic.ff import make_field
from negacyclic.verify import (MATCH, MISMATCH, SCOPES, TABLE1, ResultCache,
                               _certified, best_code_search,
                               cached_distance_report, claim_verdict,
                               descriptor_hash, make_record, render_scope,
                               report_cache_key, verify_claims)

GF3 = make_field(3, 1)


def _strip_volatile(manifest_json):
    out = json.loads(json.dumps(manifest_json))
    for r in out["records"]:
        r.pop("timestamp", None)
        r.pop("elapsed_s", None)
    return out


# -- best code search ---------------------------------------------------------

def test_best_code_search_known_rows():
    rep, code = best_code_search(3, 10, 4, -1)
    assert rep.d == 6 and code.k == 4
    rep, code = best_code_search(3, 10, 4, 1)
    assert rep.d == 4
    rep, code = best_code_search(3, 14, 8, -1)
    assert rep.d == 5


def test_best_code_search_no_dimension():
    with pytest.raises(CodeError, match="no .* code"):
        best_code_search(3, 10, 5, -1)


def test_best_code_search_beats_any_member():
    # the family code at (10, 4) is in the search space
    c = NegacyclicCode.from_check(GF3, 10, [1])
    from negacyclic.distance import distance_report
    rep, _ = best_code_search(3, 10, 4, -1)
    assert rep.d >= distance_report(c).d


def _table1_picks(n, k, lam):
    """Every zero-leader list of degree n - k, sorted, and the units mod R."""
    R = 2 * n if lam == -1 else n
    table = build_cosets(3, R)
    leaders = table.odd_leaders if lam == -1 else table.leaders
    picks = sorted(list(c) for r in range(len(leaders) + 1)
                   for c in itertools.combinations(leaders, r)
                   if sum(len(table.cosets[l]) for l in c) == n - k)
    units = [a for a in range(1, R) if math.gcd(a, R) == 1]
    return table, picks, units


@pytest.mark.parametrize("n,k,lam", [(n, k, lam) for n, k in sorted(TABLE1)
                                     for lam in (-1, 1)])
def test_best_code_search_scores_one_candidate_per_multiplier_orbit(n, k, lam):
    table, picks, units = _table1_picks(n, k, lam)
    scored = {}
    for pick in picks:
        code = NegacyclicCode.from_zeros(GF3, n, pick, lam)
        wd = weight_distribution(code)
        assert wd is not None
        scored[tuple(pick)] = (code, distance_report(code).d, wd)
    # x -> x^a maps each candidate onto a candidate of the same weights
    for pick, (_, d, wd) in scored.items():
        for a in units:
            image = tuple(sorted(table.leader_of[a * l % table.N] for l in pick))
            assert scored[image][1:] == (d, wd), (pick, a)
    # the unpruned loop: a report on every candidate, first of the largest d
    best = None
    for pick in picks:
        code, d, _ = scored[tuple(pick)]
        if best is None or d > best[0]:
            best = (d, code)
    rep, code = best_code_search(3, n, k, lam)
    assert (rep.d, code.g.to_text(), code.descriptor()) == (
        best[0], best[1].g.to_text(), best[1].descriptor())


def test_best_code_search_builds_one_code_per_multiplier_orbit():
    built = []
    real = NegacyclicCode.from_zeros.__func__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    with mock.patch.object(NegacyclicCode, "from_zeros", classmethod(counting)):
        for n, k in TABLE1:
            for lam in (-1, 1):
                best_code_search(3, n, k, lam)
    assert len(built) == 41   # of 70 candidates


def test_table1_brackets_at_a_tiny_budget_hold_the_reference_d():
    # each orbit representative shares d with its orbit, so the largest
    # candidate lower bound <= best d <= the largest candidate upper bound
    manifest = verify_claims("table1", SearchBudget(100, 0))
    assert manifest.summary["mismatch"] == 0
    for r in manifest.records:
        n, k = r["claim"]["n"], r["claim"]["dim_claim"]
        d = TABLE1[(n, k)][r["label"].endswith("/cyclic")]
        lower, upper = r["computed"]["lower"], r["computed"]["upper"]
        assert lower <= d <= upper, r["label"]
        assert r["computed"]["exact"] == (lower == upper)
    assert manifest.summary["lower-bound-only"] > 0   # the budget bites


def test_cold_verify_computes_each_minimal_polynomial_once():
    poly.minimal_polynomial.cache_clear()
    verify_claims("all")
    assert poly.minimal_polynomial.cache_info().misses == 298


# -- cache ---------------------------------------------------------------------

def test_cache_round_trip_and_hits(tmp_path):
    cache = ResultCache(str(tmp_path / "results.json"))
    c = NegacyclicCode.from_check(GF3, 10, [1])
    budget = SearchBudget()
    rep1 = cached_distance_report(c, budget, cache=cache)
    assert cache.hits == 0 and cache.misses == 1
    rep2 = cached_distance_report(c, budget, cache=cache)
    assert cache.hits == 1
    assert rep1.to_json() == rep2.to_json()
    # a fresh cache object reads the same file
    cache2 = ResultCache(str(tmp_path / "results.json"))
    rep3 = cached_distance_report(c, budget, cache=cache2)
    assert cache2.hits == 1
    assert rep3.to_json() == rep1.to_json()


def _tamper_weight_two(rec, good):
    rec.update(lower=2, upper=2, witness="1" + ",0" * 8 + ",1")


def _tamper_entry_out_of_range(rec, good):
    # a nonzero entry raised by q keeps the weight, and contains() (which
    # reduces mod q) would still accept the word
    w = [int(v) for v in good.split(",")]
    i = next(i for i, v in enumerate(w) if v)
    w[i] += 3
    rec["witness"] = ",".join(map(str, w))


def _tamper_short_witness(rec, good):
    rec["witness"] = good.rsplit(",", 1)[0]


def _tamper_no_witness(rec, good):
    rec["witness"] = None


@pytest.mark.parametrize("tamper", [
    _tamper_weight_two, _tamper_entry_out_of_range, _tamper_short_witness,
    _tamper_no_witness], ids=["weight-2", "entry-3", "length-9", "none"])
def test_cache_hit_with_bad_witness_is_recomputed(tamper, tmp_path):
    path = tmp_path / "results.json"
    c = NegacyclicCode.from_check(GF3, 10, [1])  # [10,4,6]
    good = cached_distance_report(c, cache=ResultCache(str(path))).to_json()
    payload = json.loads(path.read_text())
    (key,) = payload["records"]
    tamper(payload["records"][key], good["witness"])
    path.write_text(json.dumps(payload))
    cache = ResultCache(str(path))
    with pytest.warns(UserWarning, match="recomputing cached report"):
        rep = cached_distance_report(c, cache=cache)
    assert cache.hits == 1 and rep.exact and rep.d == 6
    assert rep.to_json() == good
    # the fresh report replaced the bad record on disk
    assert json.loads(path.read_text())["records"][key] == good


def _edit_only_record(path, edit):
    payload = json.loads(path.read_text())
    (key,) = payload["records"]
    edit(payload["records"][key])
    path.write_text(json.dumps(payload))
    return key


def _served_fresh(code, budget, path, good):
    """The edited record is recomputed with a warning and overwritten."""
    cache = ResultCache(str(path))
    with pytest.warns(UserWarning, match="recomputing cached report"):
        rep = cached_distance_report(code, budget, cache=cache)
    assert cache.hits == 1 and rep.to_json() == good
    (rec,) = json.loads(path.read_text())["records"].values()
    assert rec == good


def test_cache_forged_bounds_only_exact_is_recomputed(tmp_path):
    # an engine record of the [10,4,6] code edited into a witnessless
    # bounds-only d = 2 must not be served as exact
    path = tmp_path / "results.json"
    c = NegacyclicCode.from_check(GF3, 10, [1])
    good = cached_distance_report(c, cache=ResultCache(str(path))).to_json()
    _edit_only_record(path, lambda rec: rec.update(
        method="bounds-only", lower=2, upper=2, exact=True, witness=None))
    _served_fresh(c, SearchBudget(), path, good)


@pytest.mark.parametrize("edit", [
    lambda rec: rec.update(upper=9),          # a d in 6..7 claim would not match
    lambda rec: rec.pop("upper"),
    lambda rec: rec.update(witness="1,2,x"),
], ids=["upper", "no-upper", "witness-not-int"])
def test_cache_forged_engine_record_is_recomputed(edit, tmp_path):
    # an engine record of the [10,4,6] code whose upper bound is edited
    # or missing, or whose witness does not decode
    path = tmp_path / "results.json"
    c = NegacyclicCode.from_check(GF3, 10, [1])
    good = cached_distance_report(c, cache=ResultCache(str(path))).to_json()
    _edit_only_record(path, edit)
    _served_fresh(c, SearchBudget(), path, good)


def test_cli_distance_recomputes_undecodable_cached_witness(tmp_path, capsys):
    # a record the cache cannot decode is not a usage error (exit 3)
    code = tmp_path / "code.json"
    cache = tmp_path / "results.json"
    assert main(["build", "--n", "10", "--check", "1", "--out", str(code)]) == 0
    args = ["distance", "--code", str(code), "--cache", str(cache)]
    assert main(args) == 0
    good = json.loads(capsys.readouterr().out)
    _edit_only_record(cache, lambda rec: rec.update(witness="1,2,x"))
    with pytest.warns(UserWarning, match="cannot be decoded"):
        assert main(args) == 0
    assert json.loads(capsys.readouterr().out) == good


# [14,6,6] (family 1, rho = 7): BCH gives 5, sphere packing 7, and a column
# search up to weight 5 finds nothing, so its bounds-only report is 6..7
_BOUNDS_BUDGET = SearchBudget(max_message_enum=3, max_column_weight=5)
# [34,18,10] (family 1, rho = 17, the dual): BCH gives 5, sphere packing 12;
# 4000 words admit the information-set search with reach 4 (3588 words to
# level 3, the first where its disjoint windows [0, 18), [18, 36) mod 34
# give L(3) = 6 > 4), cheaper than the column search to weight 4 (4693
# entries).  Over all 34 windows level 3 proves ceil(34 * 4 / 18) = 8, so
# its bounds-only report is 8..12
_INFO_BUDGET = SearchBudget(max_message_enum=4000, max_column_weight=4)


@pytest.fixture(scope="module")
def rho7_code():
    from negacyclic.families import build_family1
    return build_family1(7).code


@pytest.fixture(scope="module")
def rho17_dual():
    from negacyclic.families import build_family1
    return build_family1(17).dual


def test_cache_genuine_bounds_only_hits_are_served(rho7_code, rho17_dual,
                                                   tmp_path):
    import warnings
    for code, budget, src in (
            (rho7_code, _BOUNDS_BUDGET, "column-search w<=5"),
            (rho7_code, SearchBudget(max_message_enum=3, max_column_weight=2),
             "bch(v=1)"),
            (rho17_dual, _INFO_BUDGET, "information-set w<=3")):
        path = tmp_path / f"{code.n}-{budget.max_column_weight}.json"
        rep = cached_distance_report(code, budget, cache=ResultCache(str(path)))
        assert rep.method == "bounds-only" and rep.lower_src == src
        cache = ResultCache(str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = cached_distance_report(code, budget, cache=cache)
        assert cache.hits == 1 and again.to_json() == rep.to_json()


@pytest.mark.parametrize("info,edit", [
    (False, lambda rec: rec.update(upper=6)),                 # not the packing bound
    (False, lambda rec: rec.update(upper_src="trivial")),
    (False, lambda rec: rec.update(lower=7, exact=True)),     # w<=5 proves 6
    (False, lambda rec: rec.update(lower_src="column-search w<=6", lower=7,
                                   exact=True)),
    (False, lambda rec: rec.update(lower_src="bch(v=1)")),    # BCH at v=1 is 5
    (False, lambda rec: rec.update(lower_src="bch(v=2)", lower=5)),  # 2 | 28
    (False, lambda rec: rec.update(lower_src="exhaustive")),  # unknown source
    (False, lambda rec: rec.update(exact=True)),              # 6..7 is not exact
    (False, lambda rec: rec.update(witness="1" + ",0" * 13)),
    # level 3 is the first with L > 4, where all 34 windows prove 8: levels
    # 2 and 4, with their own bounds 6 and 10, are not it
    (True, lambda rec: rec.update(lower_src="information-set w<=2", lower=6)),
    (True, lambda rec: rec.update(lower_src="information-set w<=4", lower=10)),
    (True, lambda rec: rec.update(lower=7)),                  # the bound is 8
    (True, lambda rec: rec.update(lower=9)),
    (True, lambda rec: rec.update(lower=6)),   # L(3), the disjoint windows'
], ids=["upper", "upper-src", "lower", "cap", "bch-bound", "bch-multiplier",
        "source", "exact-flag", "witness", "info-level-below",
        "info-level-above", "info-lower-below", "info-lower-above",
        "info-lower-disjoint"])
def test_cache_bounds_only_hit_is_certified(info, edit, rho7_code, rho17_dual,
                                            tmp_path):
    if info:
        code, budget, want = rho17_dual, _INFO_BUDGET, (8, 12, "information-set w<=3")
    else:
        code, budget, want = rho7_code, _BOUNDS_BUDGET, (6, 7, "column-search w<=5")
    path = tmp_path / "results.json"
    good = cached_distance_report(code, budget,
                                  cache=ResultCache(str(path))).to_json()
    assert (good["lower"], good["upper"], good["lower_src"]) == want
    _edit_only_record(path, edit)
    _served_fresh(code, budget, path, good)


def test_cache_sound_bounds_only_record_off_the_plan_is_recomputed(rho7_code,
                                                                  tmp_path):
    # at max_column_weight 2 no engine runs on [14,6], and the report is the
    # BCH bound at the best multiplier; the bound at another unit multiplier
    # is as true, but it is not the report distance_report gives
    budget = SearchBudget(max_message_enum=3, max_column_weight=2)
    path = tmp_path / "results.json"
    good = cached_distance_report(rho7_code, budget,
                                  cache=ResultCache(str(path))).to_json()
    best, _ = rho7_code.best_bch_multiplier()
    assert good["lower_src"] == f"bch(v={best})"
    v = next(v for v in range(best + 1, rho7_code.R)
             if math.gcd(v, rho7_code.R) == 1)
    _edit_only_record(path, lambda rec: rec.update(
        lower_src=f"bch(v={v})", lower=rho7_code.bch_bound(v)))
    _served_fresh(rho7_code, budget, path, good)


@pytest.mark.parametrize("rho", [43, 47, 59])
def test_family1_parts_past_2_62_syndromes_meet_their_lower_bounds(
        rho, smallest_irreducible):
    # every part of rho = 43, 47 and of the case-2 rho = 59 has r <= 64 // s,
    # so w_cap is 6, and the information-set search with reach 6 proves
    # d >= 8..10, at least the claimed floor(sqrt(rho)) + 1 or + 2.  rho = 47
    # takes the smallest irreducible of degree 46 as its host modulus, since
    # the default GF(3^46) search factors 3^46 - 1 by trial (about a
    # minute); its root is another element of order 188, so each part is
    # equivalent to the default build's
    host = smallest_irreducible(3, 46) if rho == 47 else None
    built = build_family1(rho, host_modulus=host, allow_case2=True)
    for part, claim in built.claims.items():
        code = getattr(built, part)
        rep = distance_report(code)
        assert rep.method == "bounds-only"
        assert rep.lower_src.startswith("information-set w<=")
        assert claim_verdict(claim, code.k, rep) == MATCH
        assert _certified(code, rep, SearchBudget())


def test_bounds_only_record_above_the_packing_bound_is_rejected():
    # [10,4,6]: the default budget's column search reaches w_cap = 6 = the
    # packing bound, so "column-search w<=6" would name lower 7 > upper 6
    c = NegacyclicCode.from_check(GF3, 10, [1])
    rep = DistanceReport(lower=7, upper=6, exact=False, method="bounds-only",
                         lower_src="column-search w<=6",
                         upper_src="sphere-packing")
    assert not _certified(c, rep, SearchBudget())


def test_information_set_bound_needs_the_constacyclic_windows(rho17_dual):
    # the record of the [34,18] code names level 3 and the bound 8 of its 34
    # windows; the same rows as a plain LinearCode have the one window of
    # their pivots, where w + 1 first exceeds 4 at level 4
    rep = distance_report(rho17_dual, _INFO_BUDGET)
    assert (rep.lower, rep.lower_src) == (8, "information-set w<=3")
    assert _certified(rho17_dual, rep, _INFO_BUDGET)
    plain = LinearCode(rho17_dual.field, rho17_dual.rows())
    assert not _certified(plain, rep, _INFO_BUDGET)


def _records(path):
    with open(path) as fh:
        return json.load(fh)["records"]


def test_cache_put_keeps_records_of_other_instances(tmp_path):
    path = str(tmp_path / "results.json")
    a = ResultCache(path)
    assert a.get("k0") is None  # A reads the (missing) file
    b = ResultCache(path)
    b.put("k1", {"v": 1})
    a.put("k2", {"v": 2})
    assert _records(path) == {"k1": {"v": 1}, "k2": {"v": 2}}
    b.put("k3", {"v": 3})  # B merges A's write in turn
    assert set(_records(path)) == {"k1", "k2", "k3"}
    assert ResultCache(path).get("k3") == {"v": 3}


def _put_many(path, prefix, count):
    cache = ResultCache(path)
    for i in range(count):
        cache.put(f"{prefix}{i}", {"i": i})


def test_cache_puts_from_several_processes_keep_every_record(tmp_path):
    import multiprocessing
    path = str(tmp_path / "results.json")
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_put_many, args=(path, tag, 25)) for tag in "abc"]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
        assert not proc.is_alive() and proc.exitcode == 0
    assert len(_records(path)) == 75


def test_cache_distinct_budgets_distinct_keys(tmp_path):
    cache = ResultCache(str(tmp_path / "results.json"))
    c = NegacyclicCode.from_check(GF3, 10, [1])
    cached_distance_report(c, SearchBudget(), cache=cache)
    cached_distance_report(c, SearchBudget(max_message_enum=3 ** 17), cache=cache)
    assert cache.misses == 2 and cache.hits == 0


def test_cache_key_includes_engine_version(monkeypatch):
    from negacyclic import verify
    c = NegacyclicCode.from_check(GF3, 10, [1])
    before = report_cache_key(c, SearchBudget())
    monkeypatch.setattr(verify, "ENGINE_VERSION", verify.ENGINE_VERSION + 1)
    assert report_cache_key(c, SearchBudget()) != before


def test_cache_corrupt_file_rebuilt(tmp_path):
    path = tmp_path / "results.json"
    path.write_text("{not json")
    cache = ResultCache(str(path))
    with pytest.warns(UserWarning, match="corrupt"):
        assert cache.get("nothing") is None
    c = NegacyclicCode.from_check(GF3, 10, [1])
    cached_distance_report(c, cache=cache)
    assert json.loads(path.read_text())["schema"] == 1


@pytest.mark.parametrize("text", [
    "[]", "null", '{"schema": 1, "records": [1, 2]}',
], ids=["list", "null", "records-list"])
def test_cache_malformed_payload_rebuilt(text, tmp_path):
    path = tmp_path / "results.json"
    path.write_text(text)
    cache = ResultCache(str(path))
    with pytest.warns(UserWarning, match="corrupt"):
        assert cache.get("nothing") is None
    cache.put("k", {"v": 1})
    assert json.loads(path.read_text()) == {"schema": 1, "records": {"k": {"v": 1}}}


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("NEGACYCLIC_CACHE", str(tmp_path / "alt.json"))
    cache = ResultCache()
    assert cache.path.endswith("alt.json")


# -- verdicts and records --------------------------------------------------------

def test_record_requires_source():
    claim = Claim("x", 10, 4, "")
    with pytest.raises(ValueError, match="source"):
        make_record("label", claim, None, None, MATCH)


def test_claim_verdict_logic():
    from negacyclic.distance import DistanceReport
    exact6 = DistanceReport(6, 6, True, "information-set")
    interval = DistanceReport(5, 9, False, "bounds-only")
    c_exact = Claim("x", 10, 4, "s", d_exact=6)
    assert claim_verdict(c_exact, 4, exact6) == MATCH
    assert claim_verdict(c_exact, 4, interval) == "lower-bound-only"
    assert claim_verdict(c_exact, 5, exact6) == MISMATCH  # dim wrong
    assert claim_verdict(Claim("x", 10, 4, "s", d_exact=4), 4, exact6) == MISMATCH
    assert claim_verdict(Claim("x", 10, 4, "s", d_lower=5), 4, exact6) == MATCH
    assert claim_verdict(Claim("x", 10, 4, "s", d_lower=7), 4, exact6) == MISMATCH
    assert claim_verdict(Claim("x", 10, 4, "s", d_interval=(5, 6)), 4, exact6) == MATCH
    assert claim_verdict(Claim("x", 10, 4, "s", d_interval=(2, 3)), 4, exact6) == MISMATCH


def test_claim_status_is_one_interval_test():
    # the three helpers it replaced, one per claim kind: d = v, d in
    # [lo, hi] and d >= lo
    from negacyclic import verify
    ok, open_, contra = verify._VERIFIED, verify._OPEN, verify._CONTRA

    def exact(rep, v):
        if rep.exact:
            return ok if rep.lower == v else contra
        return open_ if rep.lower <= v <= rep.upper else contra

    def interval(rep, lo, hi):
        if rep.lower >= lo and rep.upper <= hi:
            return ok
        return contra if rep.lower > hi or rep.upper < lo else open_

    def lower(rep, lo):
        if rep.lower >= lo:
            return ok
        return contra if rep.upper < lo else open_

    claims = range(0, 11)
    for lo, hi in itertools.combinations_with_replacement(range(1, 10), 2):
        rep = DistanceReport(lo, hi, lo == hi, "bounds-only")
        for v in claims:
            assert verify._status(rep, v, v) == exact(rep, v), (rep, v)
            assert verify._status(rep, v, math.inf) == lower(rep, v), (rep, v)
        for a, b in itertools.combinations_with_replacement(claims, 2):
            assert verify._status(rep, a, b) == interval(rep, a, b), (rep, a, b)


# -- verify_claims ------------------------------------------------------------------

def test_verify_properties_scope():
    manifest = verify_claims("properties")
    assert manifest.summary[MISMATCH] == 0
    assert manifest.summary[MATCH] == len(manifest.records)
    assert manifest.exit_code == 0


def test_verify_scope_validation():
    with pytest.raises(ValueError, match="unknown scope"):
        verify_claims("bogus")


def test_verify_manifest_deterministic():
    m1 = verify_claims("properties")
    m2 = verify_claims("properties")
    assert _strip_volatile(m1.to_json()) == _strip_volatile(m2.to_json())


def test_verify_all_is_the_scopes_in_order_on_one_cache(tmp_path):
    # the five scopes fill one cache; "all" over the same file then gives
    # their records concatenated, hits every key and writes nothing
    path = tmp_path / "results.json"
    cache = ResultCache(str(path))
    scopes = [s for s in SCOPES if s != "all"]
    records = [r for s in scopes for r in verify_claims(s, cache=cache).records]
    cold = path.read_bytes()
    warm = ResultCache(str(path))
    manifest = verify_claims("all", cache=warm)
    assert (_strip_volatile({"records": manifest.records})
            == _strip_volatile({"records": records}))
    assert (warm.hits, warm.misses) == (83, 0)
    assert path.read_bytes() == cold


def test_verify_mismatch_injection_sets_exit_code(monkeypatch):
    bad = Claim("code", 13, 7, "injected-for-test", d_exact=4)
    build = families.build_family4

    def with_bad_claim(j, m):
        b = build(j, m)
        return dataclasses.replace(b, claims={"code": bad}) if (j, m) == (1, 3) else b

    monkeypatch.setattr(families, "build_family4", with_bad_claim)
    manifest = verify_claims("family4")
    assert manifest.summary[MISMATCH] == 1
    assert manifest.exit_code == 2
    rec = [r for r in manifest.records if r["label"] == "family4/m=3/j=1"][0]
    assert rec["verdict"] == MISMATCH
    assert rec["computed"]["lower"] == 5  # both values recorded


def test_verify_family4_scope():
    manifest = verify_claims("family4")
    assert manifest.summary[MISMATCH] == 0
    by_label = {r["label"]: r for r in manifest.records}
    assert by_label["family4/m=3/j=1"]["verdict"] == MATCH
    assert by_label["family4/m=5/duality"]["verdict"] == MATCH
    assert by_label["family4/m=7/multiplier/j=3"]["computed"]["bch_bound"] >= 9


def test_render_scope_text():
    manifest = verify_claims("properties")
    text = render_scope(manifest)
    assert "summary:" in text
    assert "properties/digit-complement" in text


def test_descriptor_hash_stable():
    d = {"q": 3, "n": 10}
    assert descriptor_hash(d) == descriptor_hash({"n": 10, "q": 3})


def _probe(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports this checkout's src."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


NO_OPENSSL_PROBE = """
import os, sys
from negacyclic import cli
tmp = sys.argv[1]
cache, code, out = (os.path.join(tmp, f) for f in ("c.json", "code.json", "o.json"))
verify = ["verify", "--scope", "examples", "--out", out]
distance = ["distance", "--code", code, "--out", out]
for name, argv in [
        ("family", ["family", "--id", "1", "--rho", "5", "--out", out]),
        ("build", ["build", "--n", "10", "--check", "1", "--out", code]),
        ("cold verify", verify + ["--cache", cache]),
        ("warm verify", verify + ["--cache", cache]),
        ("uncached verify", verify + ["--no-cache"]),
        ("best", ["best", "--n", "10", "--k", "4", "--cache", cache, "--out", out]),
        ("distance", distance + ["--cache", cache]),
        ("uncached distance", distance + ["--no-cache"])]:
    status = cli.main(argv)
    loaded = sorted({"_hashlib", "hashlib"} & set(sys.modules))
    if status != 0 or loaded:
        sys.exit(f"{name}: exit {status}, loaded {loaded}")
"""


def test_no_command_loads_openssl(tmp_path):
    # descriptor_hash takes SHA-256 from the interpreter's built-in module,
    # so no command pays for OpenSSL's libcrypto, hashing or not
    proc = _probe(NO_OPENSSL_PROBE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]


DIGEST_PARITY_PROBE = """
import json, sys
cache_path, blocked = sys.argv[1], sys.argv[2:]
for name in blocked:
    sys.modules[name] = None  # import of a blocked built-in raises ImportError
from negacyclic import verify
texts = {}  # digest -> the canonical JSON descriptor_hash was given
def recording(desc, digest=verify.descriptor_hash):
    got = digest(desc)
    texts[got] = json.dumps(desc, sort_keys=True, separators=(",", ":"))
    return got
verify.descriptor_hash = recording
manifest = verify.verify_claims("examples", cache=verify.ResultCache(cache_path))
source = verify.sha256.__module__
if source in blocked or ("hashlib" in sys.modules) != (source == "_hashlib"):
    sys.exit(f"sha256 from {source} with {blocked} blocked")
import hashlib
sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
for rec in manifest.records:
    if rec["code_hash"] != sha(json.dumps(rec["descriptor"], sort_keys=True,
                                          separators=(",", ":"))):
        sys.exit(f"code_hash of {rec['label']} is not the SHA-256 of its descriptor")
with open(cache_path) as fh:
    keys = set(json.load(fh)["records"])
if not keys or not keys <= set(texts):
    sys.exit(f"cache keys {sorted(keys - set(texts))} were not hashed")
bad = sorted(got for got, text in texts.items() if got != sha(text))
if bad:
    sys.exit(f"descriptor_hash differs from hashlib on {bad}")
"""


@pytest.mark.parametrize("blocked", [[], ["_sha2"], ["_sha2", "_sha256"]],
                         ids=["built-in", "no-sha2", "hashlib-fallback"])
def test_descriptor_hash_matches_hashlib(blocked, tmp_path):
    # every code_hash and cache key equals hashlib's SHA-256 of the canonical
    # JSON, on each branch of the import: _sha2, _sha256, and hashlib
    proc = _probe(DIGEST_PARITY_PROBE, str(tmp_path / "c.json"), *blocked)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cache_written_with_hashlib_still_hits(tmp_path, recwarn):
    # a cache whose keys came from hashlib, as descriptor_hash made them
    # before it took the built-in SHA-256, is hit on every key
    import hashlib

    def hashlib_digest(desc):
        return hashlib.sha256(json.dumps(
            desc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    path = tmp_path / "c.json"
    with mock.patch("negacyclic.verify.descriptor_hash", hashlib_digest):
        old = verify_claims("examples", cache=ResultCache(str(path)))
    written = path.read_bytes()
    cache = ResultCache(str(path))
    new = verify_claims("examples", cache=cache)
    assert cache.misses == 0 and cache.hits == len(json.loads(written)["records"])
    assert not [w for w in recwarn if "recomputing" in str(w.message)]
    assert path.read_bytes() == written
    assert ([r["code_hash"] for r in new.records]
            == [r["code_hash"] for r in old.records])


# -- CLI ----------------------------------------------------------------------------

def test_cli_cosets(capsys):
    assert main(["cosets", "--q", "3", "--n-mod", "20"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cosets"]["1"] == [1, 3, 7, 9]
    assert out["odd_leaders"] == [1, 5, 11]


def test_cli_field(capsys):
    assert main(["field", "--p", "3", "--m", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    # the field's descriptor alone: no key that factors p^m - 1
    assert out == make_field(3, 4).descriptor()


def test_cli_build_dual_distance_roundtrip(tmp_path, capsys):
    desc_path = tmp_path / "code.json"
    assert main(["build", "--n", "20", "--check", "1",
                 "--out", str(desc_path)]) == 0
    desc = json.loads(desc_path.read_text())
    assert desc["k"] == 4 and desc["zero_leaders"] == [5, 7, 11, 13, 25]

    dual_path = tmp_path / "dual.json"
    assert main(["dual", "--code", str(desc_path), "--out", str(dual_path)]) == 0
    dual_desc = json.loads(dual_path.read_text())
    assert dual_desc["k"] == 16 and dual_desc["zero_leaders"] == [13]

    cache_path = tmp_path / "results.json"
    assert main(["distance", "--code", str(dual_path), "--budget", "3^16",
                 "--cache", str(cache_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["exact"] and rep["lower"] == 3
    # [20,16,3]: the column search to weight 4 reaches the packing bound 3
    # with 1641 side entries, where the information-set search needs 2496
    # words
    assert rep["method"] == "column-search"
    assert cache_path.exists()


def test_cli_code_from_stdin_leaves_stdin_open(capsys):
    desc = NegacyclicCode.from_check(make_field(3, 1), 10, [1]).descriptor()
    stdin = io.StringIO(json.dumps(desc))
    with mock.patch.object(sys, "stdin", stdin):
        for _ in range(2):
            stdin.seek(0)
            assert main(["dual", "--code", "-"]) == 0
            assert json.loads(capsys.readouterr().out)["k"] == 6
    assert not stdin.closed


def test_cli_psi(tmp_path, capsys):
    desc_path = tmp_path / "code.json"
    main(["build", "--n", "13", "--check", "1,17", "--out", str(desc_path)])
    capsys.readouterr()
    assert main(["psi", "--code", str(desc_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == 1 and out["k"] == 6


def test_cli_decompose(tmp_path, capsys):
    desc_path = tmp_path / "code.json"
    main(["build", "--q", "5", "--n", "6", "--generator", "1,0,1",
          "--out", str(desc_path)])
    capsys.readouterr()
    assert main(["decompose", "--code", str(desc_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda_sqrt"] in (2, 3)
    assert out["res_minus"]["n"] == 3 and out["res_plus"]["n"] == 3


def test_cli_family_and_best(capsys):
    assert main(["family", "--id", "4", "--j", "1", "--m", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["claims"]["code"]["dim_claim"] == 60
    assert out["claims"]["code"]["d_lower_claim"] == 6
    assert out["claims"]["code"]["source"]

    assert main(["best", "--n", "10", "--k", "6", "--lam", "-1",
                 "--no-cache"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d"] == 4


@pytest.mark.parametrize("argv,modulus", [
    (["--id", "2", "--ell", "3", "--n", "14"], "2,1,0,0,0,0,1"),
    (["--id", "3", "--m", "3", "--n", "13"], "1,0,2,1"),
], ids=["family2", "family3"])
def test_cli_family_takes_host_modulus(argv, modulus, capsys):
    assert main(["family", *argv, "--host-modulus", modulus]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["code"]["host_field"]["modulus"] == modulus


def test_cli_verify_exit_codes(tmp_path, capsys):
    rc = main(["verify", "--scope", "properties", "--no-cache",
               "--out", str(tmp_path / "m.json")])
    assert rc == 0
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["summary"]["mismatch"] == 0
    assert all(r["claim"]["source"] for r in manifest["records"])


@pytest.mark.parametrize("argv,message", [
    (["distance"], "required: --code"),
    (["verify", "--scope", "bogus"], "unknown scope 'bogus'"),
    (["field", "--p", "4", "--m", "1"], "characteristic 4 is not prime"),
    (["build", "--q", "4", "--n", "10", "--check", "1"],
     "characteristic 4 is not prime"),
    (["distance", "--no-cache", "--code", "{tmp}/nonexistent.json"],
     "No such file"),
    (["distance", "--no-cache", "--code", "{tmp}/no-g.json"],
     "malformed code descriptor"),
    (["dual", "--code", "{tmp}/not-json.json"], "malformed code descriptor"),
    (["field", "--p", "3", "--m", "2", "--modulus", "2,0,1"],
     "reducible over GF(3); divisible by 1,1"),
    (["build", "--n", "10", "--check", "1", "--host-modulus", "2,0,0,0,1"],
     "reducible over GF(3); divisible by 1,1"),
    (["dual", "--code", "{tmp}/gf25-as-gf9.json"], "q = 9 disagrees"),
    (["cosets", "--q", "3", "--n-mod", "-5"], "N = -5 must be at least 1"),
    (["cosets", "--q", "3", "--n-mod", "0"], "N = 0 must be at least 1"),
    (["cosets", "--q", "1", "--n-mod", "5"], "q = 1 must be at least 2"),
    (["cosets", "--q", "-2", "--n-mod", "5"], "q = -2 must be at least 2"),
    # coefficients outside 0..p-1 or 0..q-1 were reduced, not refused
    (["field", "--p", "3", "--m", "4", "--modulus", "5,1,0,0,1"],
     "modulus 5,1,0,0,1 has a coefficient outside 0..2"),
    (["field", "--p", "3", "--m", "4", "--modulus", "2,1,0,0,4"],
     "modulus 2,1,0,0,4 has a coefficient outside 0..2"),
    (["build", "--n", "10", "--generator", "4,0,1"],
     "polynomial 4,0,1 has a coefficient outside 0..2"),
    (["dual", "--code", "{tmp}/g-out-of-range.json"],
     "polynomial 4,2,1,0,1,1,1 has a coefficient outside 0..2"),
    (["distance", "--no-cache", "--code", "{tmp}/zero-leaders-edited.json"],
     "zero_leaders = [1, 5] disagree with the generator's [5, 11]"),
    # family builders check --host-modulus; family 4's takes none
    (["family", "--id", "2", "--ell", "3", "--n", "14",
      "--host-modulus", "1,0,0,0,0,0,1"],
     "reducible over GF(3); divisible by 1,0,1"),
    (["family", "--id", "4", "--j", "1", "--m", "3", "--host-modulus", "1,2,3"],
     "--host-modulus is not accepted for family 4"),
    # malformed integer lists name their option, never Python's own message
    (["family", "--id", "2", "--ell", "3", "--n", "14", "--host-modulus", "a,b"],
     "--host-modulus 'a,b' must be comma-separated integers"),
    (["build", "--n", "10", "--check", "1", "--host-modulus", "a,b"],
     "--host-modulus 'a,b' must be comma-separated integers"),
    (["build", "--n", "10", "--check", "1,x"],
     "--check '1,x' must be comma-separated integers"),
    (["build", "--n", "10", "--zeros", ","],
     "--zeros ',' must be comma-separated integers"),
    (["build", "--n", "10", "--generator", "1,x"],
     "--generator '1,x' must be comma-separated integers"),
    (["field", "--p", "3", "--m", "2", "--modulus", "1,y,1"],
     "--modulus '1,y,1' must be comma-separated integers"),
    (["field", "--p", "3", "--m", "2", "--modulus", ""],
     "--modulus '' must be comma-separated integers"),
    (["build", "--base-m", "2", "--base-modulus", "1,z,1", "--n", "5",
      "--check", "1"],
     "--base-modulus '1,z,1' must be comma-separated integers"),
    # so do malformed descriptor fields, with the file
    (["distance", "--no-cache", "--code", "{tmp}/g-not-integers.json"],
     "descriptor {tmp}/g-not-integers.json: field 'g' must hold integers, "
     "got 'x'"),
    (["dual", "--code", "{tmp}/n-not-integer.json"],
     "descriptor {tmp}/n-not-integer.json: field 'n' must hold integers, "
     "got 'ten'"),
    (["decompose", "--code", "{tmp}/zero-leaders-not-integers.json"],
     "descriptor {tmp}/zero-leaders-not-integers.json: field 'zero_leaders' "
     "must hold integers, got 'a'"),
    # each family names the options it needs; a malformed --host-modulus is
    # reported before a missing option
    (["family", "--id", "1"], "--rho required for family 1"),
    (["family", "--id", "2", "--ell", "3"], "--ell and --n required for family 2"),
    (["family", "--id", "3", "--n", "13"], "--m and --n required for family 3"),
    (["family", "--id", "4", "--m", "3"], "--j and --m required for family 4"),
    (["family", "--id", "1", "--host-modulus", "x"],
     "--host-modulus 'x' must be comma-separated integers"),
    # a best d the budget leaves unsettled names its bracket
    (["best", "--n", "20", "--k", "10", "--budget", "1", "--no-cache"],
     "best d at n = 20, k = 10, lam = -1 is not settled within budget: 7..8"),
], ids=["missing-code", "bad-scope", "composite-p", "build-composite-q",
        "missing-file", "descriptor-without-g", "descriptor-not-json",
        "reducible-modulus", "reducible-host-modulus", "descriptor-q-k-edited",
        "cosets-negative-modulus", "cosets-zero-modulus", "cosets-q-one",
        "cosets-negative-q", "modulus-low-coefficient-above-p",
        "modulus-top-coefficient-above-p", "generator-coefficient-above-q",
        "descriptor-g-out-of-range", "descriptor-zero-leaders-edited",
        "family2-reducible-host-modulus", "family4-host-modulus",
        "family-host-modulus-not-integers", "build-host-modulus-not-integers",
        "check-not-integers", "zeros-not-integers",
        "generator-not-integers", "modulus-not-integers", "modulus-empty",
        "base-modulus-not-integers", "descriptor-g-not-integers",
        "descriptor-n-not-integer", "descriptor-zero-leaders-not-integers",
        "family1-missing-rho", "family2-missing-n", "family3-missing-m",
        "family4-missing-j", "family-host-modulus-before-missing-option",
        "best-unsettled"])
def test_cli_usage_error_exit_3(argv, message, tmp_path, capsys):
    (tmp_path / "no-g.json").write_text('{"q": 3, "n": 10, "lambda": -1}')
    (tmp_path / "not-json.json").write_text("[1, 2")
    # a [3,1] code over GF(25) whose descriptor claims q = 9 and k = 7
    desc = NegacyclicCode.from_check(make_field(5, 2), 3, [1]).descriptor()
    (tmp_path / "gf25-as-gf9.json").write_text(json.dumps({**desc, "q": 9,
                                                            "k": 7}))
    # the [10,4] code (g = 1,2,1,0,1,1,1, zero leaders 5, 11), edited
    desc = NegacyclicCode.from_check(make_field(3, 1), 10, [1]).descriptor()
    (tmp_path / "g-out-of-range.json").write_text(json.dumps(
        {**desc, "g": "4,2,1,0,1,1,1"}))
    (tmp_path / "zero-leaders-edited.json").write_text(json.dumps(
        {**desc, "zero_leaders": [1, 5]}))
    for name, edit in (("g-not-integers", {"g": "1,x"}),
                       ("n-not-integer", {"n": "ten"}),
                       ("zero-leaders-not-integers", {"zero_leaders": "abc"})):
        (tmp_path / f"{name}.json").write_text(json.dumps({**desc, **edit}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    message = message.format(tmp=tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ": error: " in err and message in err


THREADS_HELP = ("1..cpu count; accepted and checked, but unused: every "
                "distance engine runs on one thread")
#: (option strings, dest, default, type, required, choices, nargs, help)
OUT = (("--out",), "out", None, None, False, None, None, None)
CODE = (("--code",), "code", None, None, True, None, None,
        "descriptor file or -")
ENGINE = {(("--budget",), "budget", None, None, False, None, None, "e.g. 3^16"),
          (("--threads",), "threads", 1, "_threads", False, None, None,
           THREADS_HELP),
          (("--cache",), "cache", None, None, False, None, None, None),
          (("--no-cache",), "no_cache", False, None, False, None, 0, None)}
W_MAX = (("--w-max",), "w_max", None, "int", False, None, None, None)


def _int(flag, dest=None, default=None, required=False, choices=None,
         help=None):
    return ((flag,), dest or flag[2:], default, "int", required, choices,
            None, help)


def _str(flag, default=None, help=None):
    return ((flag,), flag[2:].replace("-", "_"), default, None, False, None,
            None, help)


CLI_SURFACE = {
    "field": {_int("--p", required=True), _int("--m", required=True),
              _str("--modulus"), OUT},
    "cosets": {_int("--q", required=True),
               _int("--n-mod", "n_mod", required=True), OUT},
    "build": {_int("--q", default=3,
                   help="characteristic p of the base field GF(p^base-m)"),
              _int("--base-m", "base_m", default=1), _str("--base-modulus"),
              _int("--n", required=True),
              _str("--check", help="comma-separated check coset leaders"),
              _str("--zeros", help="comma-separated zero coset leaders"),
              _str("--generator",
                   help="generator polynomial, ascending coeffs"),
              _int("--lam", default=-1, choices=(-1, 1)),
              _str("--host-modulus"), OUT},
    "dual": {CODE, OUT},
    "psi": {CODE, OUT},
    "decompose": {CODE, OUT},
    "distance": {CODE, *ENGINE, W_MAX, OUT},
    "family": {_int("--id", required=True, choices=(1, 2, 3, 4)),
               *(_int(f"--{name}") for name in ("rho", "ell", "m", "n", "j")),
               _str("--host-modulus"), OUT},
    "best": {_int("--q", default=3), _int("--n", required=True),
             _int("--k", required=True),
             _int("--lam", default=-1, choices=(-1, 1)), *ENGINE, OUT},
    "verify": {_str("--scope", default="all"), *ENGINE, W_MAX,
               (("--render",), "render", False, None, False, None, 0,
                "also print a plain-text table to stderr"), OUT},
}


def test_cli_surface():
    # every subcommand's options, each with its dest, default, type,
    # required flag, choices and help: nothing added, dropped or re-defaulted
    class Parsed(Exception):
        pass

    def stop(self, *args, **kwargs):
        raise Parsed(self)

    with mock.patch.object(cli._Parser, "parse_args", stop):
        with pytest.raises(Parsed) as exc:
            main([])
    ap = exc.value.args[0]
    (sub,) = [a for a in ap._actions if a.dest == "cmd"]
    surface = {
        name: {(tuple(a.option_strings), a.dest, a.default,
                getattr(a.type, "__name__", None), a.required,
                tuple(a.choices) if a.choices else None, a.nargs, a.help)
               for a in p._actions if a.dest != "help"}
        for name, p in sub.choices.items()}
    assert surface == CLI_SURFACE
    assert "--w-max" not in sub.choices["best"]._option_string_actions


def test_cli_build_takes_characteristic_from_q(tmp_path):
    out = tmp_path / "c.json"
    assert main(["build", "--q", "5", "--base-m", "2", "--n", "3",
                 "--check", "1", "--out", str(out)]) == 0
    desc = json.loads(out.read_text())
    assert desc["q"] == 25
    assert (desc["base_field"]["p"], desc["base_field"]["m"]) == (5, 2)


def test_cli_build_requires_one_source():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--n", "10"])
    assert exc.value.code == 3


@pytest.mark.parametrize("cmd", [
    ["best", "--n", "20", "--k", "10"],
    ["verify", "--scope", "properties"],
    ["distance", "--code", "-"],
], ids=["best", "verify", "distance"])
@pytest.mark.parametrize("threads", ["0", "-4", str((os.cpu_count() or 1) + 1),
                                     "10000000", "two"])
def test_cli_threads_out_of_range_is_usage_error(cmd, threads, capsys):
    # the parser rejects the value: no command runs and no thread starts
    before = threading.active_count()
    with mock.patch.object(cli, "_run") as run:
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--no-cache", "--threads", threads])
    assert exc.value.code == 3
    assert not run.called
    assert threading.active_count() == before
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "argument --threads" in err


def test_cli_threads_at_cpu_count_is_accepted(tmp_path):
    out = tmp_path / "m.json"
    assert main(["verify", "--scope", "properties", "--no-cache", "--threads",
                 str(os.cpu_count() or 1), "--out", str(out)]) == 0


@pytest.mark.parametrize("budget", ["3^100000000", "3^10000000", "2^65",
                                    "18446744073709551617", "0^3", "3^-1", "0",
                                    # malformed: the same one-line error
                                    "abc", "3^", "^3", "3^1.5"])
def test_cli_budget_out_of_range_fails_fast(budget, capsys):
    t0 = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scope", "properties", "--no-cache",
              "--budget", budget])
    assert time.monotonic() - t0 < 1.0
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be an integer in 1..2^64" in err


@pytest.mark.parametrize("cmd", [["verify", "--scope", "properties"],
                                 ["distance", "--code", "{tmp}/code.json"]],
                         ids=["verify", "distance"])
def test_cli_w_max_names_its_range(cmd, tmp_path, capsys):
    # 0 is the least column-search cap (no level runs); below it the one
    # error line names the cap and its range
    assert main(["build", "--n", "20", "--check", "1",
                 "--out", str(tmp_path / "code.json")]) == 0
    cmd = [a.format(tmp=tmp_path) for a in cmd] + ["--no-cache"]
    assert main(cmd + ["--w-max", "0", "--out", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(cmd + ["--w-max", "-1"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ": error: " in err
    assert "max_column_weight = -1 must be at least 0" in err
