"""Verification harness: reference tables, verdict records, the persistent
result cache, and the exhaustive best-negacyclic/best-cyclic search.

verify_claims() runs a scope of checks, compares computed distance reports
against the bundled claim tables, and returns a manifest of one record per
claim.  Each scope is a generator, _run_<scope>(budget, cache), that yields
its records in manifest order; "all" runs the five of _RUNNERS in order.
Mismatches are data (verdict="mismatch", nonzero exit status), never
crashes.  Manifests are deterministic apart from timestamps and wall times.
"""

from __future__ import annotations

import dataclasses
import fcntl
import json
import math
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from typing import Optional

from . import families
from .codes import (CodeError, NegacyclicCode, residue_distance_relation,
                    uv_construct)
from .cosets import build_cosets, weight_class_sizes, weight_classes, wt3
from .distance import (ENGINE_VERSION, DistanceReport, SearchBudget, _plan,
                       distance_report, information_set_search,
                       weight_distribution)
from .families import Claim
from .ff import make_field
from .poly import Poly

# CPython's built-in SHA-256 gives hashlib's digests without OpenSSL's libcrypto
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

SCHEMA = 1

CACHE_ENV = "NEGACYCLIC_CACHE"

#: (n, k) -> (best negacyclic d, best cyclic d)
TABLE1 = {
    (10, 4): (6, 4),
    (10, 6): (4, 2),
    (14, 6): (6, 4),
    (14, 8): (5, 2),
    (20, 10): (7, 6),
    (20, 12): (5, 4),
    (20, 16): (3, 2),
}


def descriptor_hash(desc: dict) -> str:
    """SHA-256 hex digest of desc's canonical JSON (sorted keys, no spaces).

    The digest comes from the interpreter's built-in SHA-256 module, the same
    bytes as hashlib's, so no command loads OpenSSL's libcrypto (about 3.6 MB
    of RSS) for the few hundred short strings a verify hashes.
    """
    return sha256(
        json.dumps(desc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _signature(st: os.stat_result) -> tuple[int, int, int]:
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class ResultCache:
    """JSON-file store keyed by code descriptor + engine budget.

    Writes are atomic (write-temp-then-rename) and serialised by an exclusive
    flock on the sidecar file <path>.lock.  A put first re-reads and merges
    the file when its (inode, size, mtime) differs from what this instance
    last read or wrote, so records written meanwhile by another instance or
    process are kept.  A corrupt file (not JSON, or not a schema-1 object
    whose records are an object) is rebuilt from scratch with a warning,
    never partially read.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path or os.environ.get(CACHE_ENV) or "results.json"
        self.hits = 0
        self.misses = 0
        self._data: Optional[dict] = None
        self._stat = None   # (inode, size, mtime_ns) last read or written

    def _read(self) -> dict:
        try:
            with open(self.path) as fh:
                self._stat = _signature(os.fstat(fh.fileno()))
                payload = json.load(fh)
            if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
                raise ValueError("not a schema-1 cache object")
            if not isinstance(payload.get("records"), dict):
                raise ValueError("cache records are not an object")
            return dict(payload["records"])
        except FileNotFoundError:
            self._stat = None
            return {}
        except ValueError as exc:  # json.JSONDecodeError too
            warnings.warn(f"rebuilding corrupt result cache {self.path}: {exc}")
            return {}

    def _load(self) -> dict:
        if self._data is None:
            self._data = self._read()
        return self._data

    def get(self, key: str) -> Optional[dict]:
        got = self._load().get(key)
        if got is None:
            self.misses += 1
        else:
            self.hits += 1
        return got

    def put(self, key: str, value: dict):
        data = self._load()
        with open(self.path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                now = _signature(os.stat(self.path))
            except FileNotFoundError:
                now = None
            if now != self._stat:
                data.update(self._read())
            data[key] = value
            payload = {"schema": SCHEMA, "records": data}
            d = os.path.dirname(os.path.abspath(self.path))
            fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(payload, sort_keys=True))
                os.replace(tmp, self.path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            self._stat = _signature(os.stat(self.path))


def report_cache_key(code, budget: SearchBudget) -> str:
    payload = {
        "engine": ENGINE_VERSION,
        "code": code.descriptor(),
        "max_message_enum": budget.max_message_enum,
        "max_column_weight": budget.max_column_weight,
    }
    return descriptor_hash(payload)


def _certified(code, rep: DistanceReport, budget: SearchBudget) -> bool:
    """An engine report must be exact with upper == lower, and carry a
    witness of length n, entries in range(q) (contains() reduces mod q),
    weight rep.lower and membership.  A bounds-only report must equal, in
    every field but its work, the report distance_report's plan gives for
    this code and budget (distance._plan), which it derives without running
    an engine."""
    if rep.method == "bounds-only":
        plan = _plan(code, budget)[2]
        return dataclasses.replace(rep, work=plan.work) == plan
    w = rep.witness
    return (rep.exact and rep.upper == rep.lower and w is not None
            and len(w) == code.n
            and all(0 <= v < code.field.order for v in w)
            and sum(1 for v in w if v) == rep.lower and code.contains(w))


def cached_distance_report(code, budget: Optional[SearchBudget] = None,
                           cache: Optional[ResultCache] = None) -> DistanceReport:
    """distance_report through the cache.  A hit is served only after its
    certificate is checked again (_certified); a hit that fails the check,
    or cannot be decoded, is recomputed and overwritten, with a warning."""
    budget = budget or SearchBudget()
    if cache is None:
        return distance_report(code, budget)
    key = report_cache_key(code, budget)
    hit = cache.get(key)
    if hit is not None:
        try:
            rep = DistanceReport.from_json(hit)
            ok = _certified(code, rep, budget)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            warnings.warn(f"recomputing cached report for {code!r}: its "
                          f"record cannot be decoded ({exc!r})")
        else:
            if ok:
                return rep
            warnings.warn(f"recomputing cached report for {code!r}: its "
                          f"certificate does not support {rep.lower}..{rep.upper}")
    rep = distance_report(code, budget)
    cache.put(key, rep.to_json())
    return rep


# ---------------------------------------------------------------------------
# best code of given length/dimension by exhaustive coset-subset search

def best_code_search(q: int, n: int, k: int, lam_int: int = -1,
                     budget: Optional[SearchBudget] = None,
                     cache: Optional[ResultCache] = None):
    """Exhaustive search over zero-coset subsets with degree n-k.

    Returns (best_d, generator Poly, best_code): the first candidate, in
    sorted order of zero-leader lists, of the largest distance.  There is one
    distance report per multiplier-equivalence class under the caller's
    budget; a candidate it does not settle exactly is an error.  For a unit
    a mod R (gcd(a, R) = 1: odd a prime to n when lambda = -1), x -> x^a is
    a monomial map between constacyclic codes that sends zero set T to
    a^-1 T and keeps every weight (Huffman & Pless, Fundamentals of
    Error-Correcting Codes, 2003, section 4.3).  So all candidates of one
    orbit share d, and only the first of each orbit is scored: the first
    candidate of the largest d is the first of its orbit, so the result is
    the one a report on every candidate gives.
    """
    budget = budget or SearchBudget()
    field = make_field(q, 1)
    R = 2 * n if lam_int == -1 else n
    table = build_cosets(q, R)
    leaders = [l for l in (table.odd_leaders if lam_int == -1 else table.leaders)]
    if len(leaders) > 20:
        raise CodeError(f"{2 ** len(leaders)} subsets exceed the search guard")
    sizes = [len(table.cosets[l]) for l in leaders]
    target = n - k
    picks = []
    for mask in range(1 << len(leaders)):
        deg = sum(s for i, s in enumerate(sizes) if mask >> i & 1)
        if deg == target:
            picks.append([leaders[i] for i in range(len(leaders)) if mask >> i & 1])
    if not picks:
        raise CodeError(f"no {'negacyclic' if lam_int == -1 else 'cyclic'} "
                        f"code of length {n} and dimension {k} exists")
    picks.sort()
    units = [a for a in range(1, R) if math.gcd(a, R) == 1]
    scored = set()   # every multiplier image of the picks scored so far
    best = None
    for leaders_pick in picks:
        if tuple(leaders_pick) in scored:
            continue
        scored.update(tuple(sorted(table.leader_of[a * l % R]
                                   for l in leaders_pick)) for a in units)
        code = NegacyclicCode.from_zeros(field, n, leaders_pick, lam_int)
        rep = cached_distance_report(code, budget, cache)
        if not rep.exact:
            raise CodeError(
                f"candidate {code!r} not settled exactly within budget")
        if best is None or rep.d > best[0]:
            best = (rep.d, code.g, code)
    return best


# ---------------------------------------------------------------------------
# verdicts

MATCH, BOUND_ONLY, MISMATCH, EXTERNAL = (
    "match", "lower-bound-only", "mismatch", "external-unverified")

_VERIFIED, _OPEN, _CONTRA = 0, 1, 2


def _status(report: DistanceReport, lo, hi) -> int:
    """A claim d in [lo, hi] against the report's [lower, upper]: verified
    when the bracket lies inside the claim, contradicted when they are
    disjoint, open otherwise."""
    if lo <= report.lower and report.upper <= hi:
        return _VERIFIED
    if report.lower > hi or report.upper < lo:
        return _CONTRA
    return _OPEN


def claim_verdict(claim: Claim, k: int, report: DistanceReport) -> str:
    statuses = [_VERIFIED if claim.k == k else _CONTRA]
    if claim.d_exact is not None:
        statuses.append(_status(report, claim.d_exact, claim.d_exact))
    if claim.d_interval is not None:
        statuses.append(_status(report, *claim.d_interval))
    if claim.d_lower is not None:
        statuses.append(_status(report, claim.d_lower, math.inf))
    if _CONTRA in statuses:
        return MISMATCH
    if all(s == _VERIFIED for s in statuses):
        return MATCH
    return BOUND_ONLY


def make_record(label: str, claim: Claim, descriptor: Optional[dict],
                computed: Optional[dict], verdict: str,
                work: int = 0, elapsed: float = 0.0) -> dict:
    if not claim.source:
        raise ValueError(f"record {label} lacks a claim source")
    return {
        "schema": SCHEMA,
        "label": label,
        "descriptor": descriptor,
        "code_hash": descriptor_hash(descriptor) if descriptor else None,
        "claim": claim.to_json(),
        "computed": computed,
        "verdict": verdict,
        "work": work,
        "elapsed_s": round(elapsed, 6),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _code_record(label: str, claim: Claim, code, budget, cache) -> dict:
    t0 = time.monotonic()
    rep = cached_distance_report(code, budget, cache)
    verdict = claim_verdict(claim, code.k, rep)
    return make_record(label, claim, code.descriptor(), rep.to_json(), verdict,
                       rep.work, time.monotonic() - t0)


@dataclass
class Manifest:
    scope: str
    budget: SearchBudget
    records: list[dict] = dc_field(default_factory=list)

    @property
    def summary(self) -> dict:
        out = {MATCH: 0, BOUND_ONLY: 0, MISMATCH: 0, EXTERNAL: 0}
        for r in self.records:
            out[r["verdict"]] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 2 if self.summary[MISMATCH] else 0

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "scope": self.scope,
            "budget": {
                "max_message_enum": self.budget.max_message_enum,
                "max_column_weight": self.budget.max_column_weight,
            },
            "summary": self.summary,
            "records": self.records,
        }


# ---------------------------------------------------------------------------
# scope runners: generators that yield one record per claim, in manifest order

def _run_table1(budget, cache):
    for (n, k), (d_nega, d_cyc) in sorted(TABLE1.items()):
        for lam, d_ref, kind in ((-1, d_nega, "negacyclic"), (1, d_cyc, "cyclic")):
            label = f"table1/n={n}/k={k}/{kind}"
            claim = Claim(label, n, k, "reference-table/best-codes", d_exact=d_ref)
            t0 = time.monotonic()
            d, gen, code = best_code_search(3, n, k, lam, budget, cache)
            rep = DistanceReport(d, d, True, "search-best",
                                 lower_src="exhaustive subset search",
                                 upper_src="exhaustive subset search")
            computed = rep.to_json()
            computed["generator"] = gen.to_text()
            yield make_record(label, claim, code.descriptor(), computed,
                              claim_verdict(claim, code.k, rep),
                              elapsed=time.monotonic() - t0)


def _run_table2(budget, cache):
    for rho, row in sorted(families.FAMILY1_TABLE.items()):
        built = (families.build_family1(rho)
                 if rho in families.FAMILY1_BUILDABLE else None)
        for part, (n, k, d) in sorted(row.items()):
            label = f"table2/rho={rho}/{part}"
            claim = Claim(part, n, k, "reference-table/family1", d_exact=d)
            if built is None:
                yield make_record(label, claim, None, None, EXTERNAL)
            else:
                yield _code_record(label, claim, getattr(built, part),
                                   budget, cache)


def _run_examples(budget, cache):
    for kind, build, table, key in (
            ("family2", families.build_family2, families.FAMILY2_EXAMPLES, "l"),
            ("family3", families.build_family3, families.FAMILY3_EXAMPLES, "m")):
        for param, n, code_ref, dual_ref in table:
            b = build(param, n)
            for part, (n_part, k, d) in (("code", code_ref), ("dual", dual_ref)):
                claim = Claim(part, n_part, k, f"example/{kind}", d_exact=d)
                yield _code_record(f"{kind}/{key}={param}/n={n}/{part}", claim,
                                   getattr(b, part), budget, cache)


def _run_family4(budget, cache):
    for j in (1, 3):
        b = families.build_family4(j, 3)
        yield _code_record(f"family4/m=3/j={j}", b.claims["code"], b.code,
                           budget, cache)
    for m in (5, 7):
        built = {j: families.build_family4(j, m) for j in (1, 3)}
        dim1, dim3 = families._family4_dims(m)
        for j, expect in ((1, dim1), (3, dim3)):
            claim = Claim("dims", built[j].code.n, expect, "family4/dims")
            ok = built[j].code.k == expect
            yield make_record(
                f"family4/m={m}/dims/j={j}", claim, built[j].code.descriptor(),
                {"k": built[j].code.k}, MATCH if ok else MISMATCH)
        dual_leaders = built[1].code.dual().zero_leaders
        holds = dual_leaders == built[3].code.zero_leaders
        claim = Claim("duality", built[1].code.n, built[1].code.k,
                      "family4/duality")
        yield make_record(
            f"family4/m={m}/duality", claim, built[1].code.descriptor(),
            {"holds": bool(holds)}, MATCH if holds else MISMATCH)
        for j in (1, 3):
            claim = built[j].claims["code"]
            v, guaranteed = families.family4_multiplier(j, m)
            b = built[j].code.bch_bound(v)
            ok = (b >= guaranteed and claim.d_lower is not None
                  and b >= claim.d_lower)
            yield make_record(
                f"family4/m={m}/multiplier/j={j}", claim,
                built[j].code.descriptor(),
                {"v": v, "bch_bound": b, "guaranteed": guaranteed},
                MATCH if ok else MISMATCH)


def _identity_record(name: str, holds: bool, info: dict) -> dict:
    return make_record(f"properties/{name}",
                       Claim(name, 0, 0, "structural-identity"), None,
                       {"holds": bool(holds), **info},
                       MATCH if holds else MISMATCH)


def _run_properties(budget, cache):
    """A compact battery of structural identities; its codes are fixed and
    small, so it takes no budget or cache."""
    gf3 = make_field(3, 1)

    b2 = families.build_family2(2, 10)
    c10, d10 = b2.code, b2.dual
    ok = (c10.g * c10.h) == Poly.x_pow_minus(gf3, 10, -gf3.one())
    yield _identity_record("generator-check-product", ok, {"n": 10})
    elig = set(range(1, 2 * c10.n, 2))
    recip = {(2 * c10.n - i) % (2 * c10.n)
             for i in elig - set(c10.zero_exponents)}
    yield _identity_record("dual-zero-reciprocity",
                           recip == set(d10.zero_exponents), {"n": 10})

    b3 = families.build_family3(3, 13)
    wd = weight_distribution(b3.code, SearchBudget())
    wd_psi = weight_distribution(b3.code.psi_image(), SearchBudget())
    yield _identity_record("psi-weight-preservation", wd == wd_psi, {"n": 13})

    gf5 = make_field(5, 1)
    lin1 = Poly.from_scalars(gf5, [3, 1])
    lin2 = Poly.from_scalars(gf5, [2, 1])
    code = NegacyclicCode.from_generator(gf5, 6, lin1 * lin2, -1)
    r1, r2, lam = code.residue_decompose()
    ok_dim = code.k == r1.k + r2.k
    d1 = information_set_search(r1).d if r1.k else None
    d2 = information_set_search(r2).d if r2.k else None
    rel = residue_distance_relation(d1, d2)
    d_true = information_set_search(code).d
    ok_rel = (rel[0] == "exact" and rel[1] == d_true) or \
             (rel[0] == "interval" and rel[1] <= d_true <= rel[2])
    wd_uv = weight_distribution(uv_construct(r1, r2), SearchBudget())
    wd_c = weight_distribution(code, SearchBudget())
    yield _identity_record("even-length-split", ok_dim and ok_rel,
                           {"dims": [code.k, r1.k, r2.k], "relation": list(rel)})
    yield _identity_record("uv-weight-equivalence", wd_uv == wd_c, {"q": 5})

    b1 = families.build_family1(5)
    words = {tuple(int(v) for v in w) for w in b1.code.codewords()}
    yield _identity_record("trace-representation",
                           b1.code.trace_code_set() == words, {"rho": 5})

    ok_counts = all(weight_classes(m).class_sizes == weight_class_sizes(m)
                    for m in range(2, 7))
    yield _identity_record("digit-class-counts", ok_counts, {"m": "2..6"})

    ok_compl = all(wt3(3 ** s - 1 - i) == 2 * s - wt3(i)
                   for s in range(2, 9) for i in range(3 ** s))
    yield _identity_record("digit-complement", ok_compl, {"s": "2..8"})

    rep = information_set_search(c10)
    bch = c10.best_bch_multiplier()[1]
    yield _identity_record("bch-below-exact", bch <= rep.d,
                           {"bch": bch, "d": rep.d})


_RUNNERS = {
    "table1": _run_table1,
    "table2": _run_table2,
    "examples": _run_examples,
    "family4": _run_family4,
    "properties": _run_properties,
}

SCOPES = (*_RUNNERS, "all")


def verify_claims(scope: str = "all", budget: Optional[SearchBudget] = None,
                  cache: Optional[ResultCache] = None) -> Manifest:
    """Run one verification scope, or all five in SCOPES order, and return
    its manifest."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; pick one of {SCOPES}")
    budget = budget or SearchBudget()
    manifest = Manifest(scope, budget)
    for name in (_RUNNERS if scope == "all" else (scope,)):
        manifest.records.extend(_RUNNERS[name](budget, cache))
    return manifest


def render_scope(manifest: Manifest) -> str:
    """Plain-text table of one manifest's claims vs computed values."""
    lines = [f"{'record':44} {'claimed':>14} {'computed':>16} verdict"]
    for r in manifest.records:
        claim = r["claim"]
        claimed = claim.get("d_claim", claim.get("d_lower_claim", ""))
        if "d_interval_claim" in claim:
            lo, hi = claim["d_interval_claim"]
            claimed = f"{lo}..{hi}"
        comp = r["computed"] or {}
        if "lower" in comp:
            shown = (str(comp["lower"]) if comp.get("exact")
                     else f"{comp['lower']}..{comp['upper']}")
        elif "bch_bound" in comp:
            shown = f">={comp['bch_bound']}"
        elif "holds" in comp:
            shown = str(comp["holds"])
        elif "k" in comp:
            shown = f"k={comp['k']}"
        else:
            shown = "-"
        lines.append(f"{r['label']:44} {str(claimed):>14} {shown:>16} {r['verdict']}")
    s = manifest.summary
    lines.append(f"summary: {s[MATCH]} match, {s[BOUND_ONLY]} bound-only, "
                 f"{s[MISMATCH]} mismatch, {s[EXTERNAL]} external-unverified")
    return "\n".join(lines)
