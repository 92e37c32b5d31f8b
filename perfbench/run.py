"""Benchmark of the negacyclic verifier: end-to-end times and verdicts, and
per-module spans from a separate traced run.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout (it needs ``src/negacyclic``).
Every timed iteration is a fresh interpreter started with ``--threads 1``,
an explicit cache path under ``perfbench/.work`` and single-threaded BLAS.
Iterations repeat while the next one is expected to end within
``--seconds`` (at least one runs); times are medians over iterations.

The workloads are the paper's tables, not random input: ``--seed`` is
recorded but changes nothing.  Every output is checked (see ``check_*``);
the last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``
and the line before it holds the machine and software context, the raw
samples and the layer -> metric -> workload predictions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced iteration (public functions wrapped from outside
the package, see tracer.py) and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference", "verify-all.json")
CHILD = os.path.join(HERE, "child.py")

CHILD_TIMEOUT_S = 150
IMPORT_PROBES = 3

WORKLOADS = {
    "verify-cold": "negacyclic verify --scope all with an empty cache: what "
                   "users run; distance enumeration dominates; every cache "
                   "put and all field, polynomial and code building",
    "family1-large": "build family 1 at rho = 29, 31 and report all 4 parts "
                     "(the Table 2 rows verify leaves external): column "
                     "search and GF(3^28) construction; enumeration does no "
                     "work",
}

# Which end-to-end metric, on which workload, each layer metric should move.
PREDICTIONS = {
    "distance.enum.*": ["wall_s", "verify-cold (no change on family1-large)"],
    "distance.colsearch.*": ["wall_s, bracket_width", "family1-large "
                             "(minor share of verify-cold)"],
    "distance.report.*": ["rows_open, bracket_width", "both"],
    "ff.*, poly.*, cosets.*, codes.*, families.*":
        ["wall_s", "verify-cold (about 2.5 s) and the build share of "
         "family1-large (about 3.5 s)"],
    "verify.cache.*": ["wall_s", "verify-cold"],
    "verify.best_code_search.*": ["wall_s", "verify-cold"],
    "pkg.import_s, cli.main.s": ["setup_s and wall_s", "verify-cold"],
}

NOTES = {
    "left_out": [
        "rho = 43: its 23 s build runs the make_field path the other "
        "workloads already cover",
        "a 2-thread scaling run: too noisy on 2 shared cores",
        "the NEGACYCLIC_ACCEPT_FULL raised budgets",
        "verify-warm (the same command on a filled cache): on a shared "
        "2-vCPU machine its 2.0 s iterations slowed to 3.2 s in spells "
        "longer than a run, so the 10-run IQR/median of its wall_s was 0.27, "
        "above the 0.25 cap on a bound; the layers it isolates (building, "
        "cache reads) are still traced on verify-cold",
    ],
    "known_defects": [
        "distance_report returns work=0 for a bounds-only report even when "
        "low_weight_search ran (all 8 family1-large reports, the 6 "
        "bound-only verify-cold rows); the benchmark counts column-search "
        "subsets from the wrapped low_weight_search call instead",
    ],
}

# Table 2 of the paper: (n, k, d) per family-1 part at rho = 29 and 31.
FAMILY1_REFERENCE = {
    (29, "code"): (58, 28, 18), (29, "dual"): (58, 30, 16),
    (29, "companion"): (29, 14, 12), (29, "companion_dual"): (29, 15, 11),
    (31, "code"): (62, 30, 14), (31, "dual"): (62, 32, 12),
    (31, "companion"): (31, 15, 12), (31, "companion_dual"): (31, 16, 11),
}

MATCH, BOUND_ONLY, MISMATCH, EXTERNAL = (
    "match", "lower-bound-only", "mismatch", "external-unverified")
VOLATILE_RECORD_KEYS = ("timestamp", "elapsed_s")
# report fields an engine change may alter without changing the verdict
VOLATILE_REPORT_KEYS = ("witness", "method", "work", "lower_src", "upper_src")


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NEGACYCLIC_CACHE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], cwd: str) -> dict:
    """Run one process to completion; wall, CPU and peak RSS are its own."""
    log = os.path.join(cwd, "child.log")
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:          # interrupted: stop the child first
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0}


def fresh_dir(*parts: str) -> str:
    d = os.path.join(WORK, *parts)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# correctness

class WitnessChecker:
    """Re-checks a witness: a codeword of the described code whose weight
    equals the reported lower bound.  Memoized per (code, witness)."""

    def __init__(self):
        self._memo: dict = {}

    def __call__(self, descriptor: dict, witness: str, lower: int):
        key = (json.dumps(descriptor, sort_keys=True), witness, lower)
        if key not in self._memo:
            from negacyclic import NegacyclicCode
            code = NegacyclicCode.from_descriptor(descriptor)
            word = [int(v) for v in witness.split(",")]
            if len(word) != code.n:
                why = "witness has the wrong length"
            elif not code.contains(word):
                why = "witness is not a codeword"
            elif sum(1 for v in word if v) != lower:
                why = "witness weight differs from the lower bound"
            else:
                why = None
            self._memo[key] = why
        return self._memo[key]


def strip_volatile(manifest: dict) -> dict:
    out = dict(manifest)
    out["records"] = [{k: v for k, v in r.items()
                       if k not in VOLATILE_RECORD_KEYS}
                      for r in manifest.get("records", [])]
    return out


def _report_problem(c, rc) -> str | None:
    if rc is None:                      # external today: anything consistent
        return None
    if c is None:
        return "computed result missing"
    if "lower" not in rc:
        return None if c == rc else "computed result differs"
    if not all(k in c for k in ("lower", "upper", "exact")):
        return "distance report incomplete"
    if c["lower"] > c["upper"] or c["exact"] != (c["lower"] == c["upper"]):
        return "distance report inconsistent"
    if rc["exact"] and not (c["exact"] and c["lower"] == rc["lower"]):
        return "exact distance changed"
    if max(c["lower"], rc["lower"]) > min(c["upper"], rc["upper"]):
        return "bracket disjoint from the reference bracket"
    fixed = set(rc) - set(VOLATILE_REPORT_KEYS) - {"lower", "upper", "exact"}
    if any(c.get(k) != rc[k] for k in fixed):
        return "computed result differs"
    return None


def record_problem(r: dict, rr: dict, witness: WitnessChecker) -> str | None:
    for key in ("schema", "descriptor", "code_hash", "claim"):
        if r.get(key) != rr.get(key):
            return f"{key} differs from the reference"
    if r.get("verdict") not in (MATCH, BOUND_ONLY, EXTERNAL):
        return f"verdict {r.get('verdict')!r}"
    if rr["verdict"] == MATCH and r["verdict"] != MATCH:
        return "verdict regressed from match"
    c = r.get("computed")
    why = _report_problem(c, rr.get("computed"))
    if why is None and c and c.get("witness"):
        why = witness(r["descriptor"], c["witness"], c["lower"])
    return why


def trivial_width(claim: dict) -> int:
    """upper - lower of the trivial bracket 1 <= d <= n - k + 1."""
    return claim["n"] - claim["dim_claim"]


def check_manifest(manifest, reference: dict, witness: WitnessChecker) -> dict:
    """One operation per reference record; a record fails on any problem."""
    ref_records = reference["records"]
    if not isinstance(manifest, dict) or "records" not in manifest:
        return {"attempted": len(ref_records), "failed": len(ref_records),
                "problems": ["no manifest"], "rows": None}
    got = {r.get("label"): r for r in manifest["records"]}
    problems = []
    for label in set(got) - {r["label"] for r in ref_records}:
        problems.append(f"{label}: not in the reference")
    for key in ("schema", "scope", "budget"):
        if manifest.get(key) != reference.get(key):
            problems.append(f"manifest {key} differs from the reference")
    failed = len(problems)              # manifest-level problems
    for rr in ref_records:
        r = got.get(rr["label"])
        why = "missing" if r is None else record_problem(r, rr, witness)
        if why:
            failed += 1
            problems.append(f"{rr['label']}: {why}")
    counts = {MATCH: 0, BOUND_ONLY: 0, MISMATCH: 0, EXTERNAL: 0}
    width = 0
    for r in manifest["records"]:
        counts[r.get("verdict")] = counts.get(r.get("verdict"), 0) + 1
        c = r.get("computed") or {}
        if "lower" in c and "upper" in c:
            width += c["upper"] - c["lower"]
        elif r.get("verdict") == EXTERNAL:
            width += trivial_width(r["claim"])
    if manifest.get("summary") != counts:
        problems.append("summary disagrees with the records")
        failed += 1
    return {"attempted": len(ref_records),
            "failed": min(failed, len(ref_records)),
            "problems": problems,
            "rows": {"verdicts": counts,
                     "rows_open": counts[BOUND_ONLY] + counts[EXTERNAL],
                     "bracket_width": width,
                     "identical_to_reference":
                         strip_volatile(manifest) == reference}}


def check_family1(rows, witness: WitnessChecker) -> dict:
    """One operation per (rho, part): bracket must hold the Table 2 d."""
    keys = list(FAMILY1_REFERENCE)
    if not isinstance(rows, list):
        return {"attempted": len(keys), "failed": len(keys),
                "problems": ["no reports"], "rows": None}
    got = {(r.get("rho"), r.get("part")): r for r in rows}
    problems, failed, width, open_rows = [], 0, 0, 0
    for key in keys:
        n, k, d = FAMILY1_REFERENCE[key]
        r = got.get(key)
        rep = (r or {}).get("report") or {}
        if r is None or not all(x in rep for x in ("lower", "upper", "exact")):
            why = "missing"
        elif (r["n"], r["k"]) != (n, k):
            why = f"[n, k] = [{r['n']}, {r['k']}], expected [{n}, {k}]"
        elif not rep["lower"] <= d <= rep["upper"]:
            why = f"bracket {rep['lower']}..{rep['upper']} excludes d = {d}"
        elif rep["exact"] != (rep["lower"] == rep["upper"]):
            why = "report inconsistent"
        elif rep.get("witness"):
            why = witness(r["descriptor"], rep["witness"], rep["lower"])
        else:
            why = None
        if why:
            failed += 1
            problems.append(f"rho={key[0]}/{key[1]}: {why}")
            continue
        width += rep["upper"] - rep["lower"]
        open_rows += not rep["exact"]
    return {"attempted": len(keys), "failed": failed, "problems": problems,
            "rows": {"rows_open": open_rows, "bracket_width": width}
            if failed == 0 else None}


# ---------------------------------------------------------------------------
# workloads: set-up and one iteration each

def import_probe(modules: str) -> dict:
    """Set-up step: a fresh interpreter imports the workload's entry
    modules (the first probe also writes the bytecode cache)."""
    d = fresh_dir("probe")
    return run_child([sys.executable, "-c", f"import {modules}"], d)


class Workload:
    kind = ""               # "verify" or "family1"

    def __init__(self):
        self.setup_samples: list[dict] = []

    def setup(self):
        """Import probes.  main() runs these at the start and again at the
        end of a run, so that their median spans the host's slow and fast
        spells."""
        for _ in range(IMPORT_PROBES):
            self.setup_samples.append(import_probe(self.entry_modules))

    def iteration(self, tag: str, trace_out: str | None = None) -> dict:
        raise NotImplementedError


class VerifyCold(Workload):
    kind = "verify"
    entry_modules = "negacyclic.cli"

    def iteration(self, tag, trace_out=None):
        d = fresh_dir(tag)
        cache, out = os.path.join(d, "cache.json"), os.path.join(d, "manifest.json")
        if trace_out:
            argv = [sys.executable, CHILD, "--workload", "verify", "--out", out,
                    "--cache", cache, "--trace-out", trace_out]
        else:
            argv = [sys.executable, "-m", "negacyclic.cli", "verify",
                    "--scope", "all", "--threads", "1", "--cache", cache,
                    "--out", out]
        s = run_child(argv, d)
        s.update(output=load_json(out), cache=load_json(cache))
        return s


class Family1Large(Workload):
    kind = "family1"
    entry_modules = "negacyclic.families, negacyclic.distance"

    def iteration(self, tag, trace_out=None):
        d = fresh_dir(tag)
        out = os.path.join(d, "reports.json")
        argv = [sys.executable, CHILD, "--workload", "family1", "--out", out]
        if trace_out:
            argv += ["--trace-out", trace_out]
        s = run_child(argv, d)
        s.update(output=load_json(out), cache=None)
        return s


WORKLOAD_CLASSES = {"verify-cold": VerifyCold, "family1-large": Family1Large}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced iteration

CONSTRUCT = {"codes.NegacyclicCode.from_zeros", "codes.NegacyclicCode.from_check",
             "codes.NegacyclicCode.from_generator", "codes.NegacyclicCode.dual"}
ENUM = {"distance.exact_distance_enum", "distance.weight_distribution"}
FAMILY_BUILD = {f"families.build_family{i}" for i in (1, 2, 3, 4)}


class SpanTree:
    def __init__(self, spans: list):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[3] >= 0:
                child[s[3]] += d
        self.self_s = [d - c for d, c in zip(self.dur, child)]

    def named(self, names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def has_ancestor(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def inclusive(self, names) -> float:
        """Time inside calls of `names`, nested calls counted once."""
        names = set(names)
        return sum((self.dur[i] for i in self.named(names)
                    if not self.has_ancestor(i, names)), 0.0)

    def info_sum(self, names, key: str, where=None) -> int:
        return sum(self.spans[i][4][key] for i in self.named(names)
                   if where is None or where(i))

    def module_self(self) -> dict:
        out: dict = {}
        for s, t in zip(self.spans, self.self_s):
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out


def layer_metrics(tree: SpanTree, traced_wall: float, untraced_wall: float) -> dict:
    n = lambda names: len(tree.named(set(names)))
    enum_s = tree.inclusive(ENUM)
    words = tree.info_sum(ENUM, "codewords")
    bytes_ = sum(s[4]["codewords"] * s[4]["n"] for s in tree.spans
                 if s[0] in ENUM)
    cs = tree.named({"distance.low_weight_search"})
    reports = tree.named({"distance.distance_report"})
    gets = tree.named({"verify.ResultCache.get"})
    hits = sum(1 for i in gets if tree.spans[i][4]["hit"])
    best = set(tree.named({"verify.best_code_search"}))
    top = sum(d for s, d in zip(tree.spans, tree.dur) if s[3] < 0)
    return {
        "distance.enum.s": enum_s,
        "distance.enum.codewords": words,
        "distance.enum.codewords_per_s": words / enum_s if enum_s > 0 else 0.0,
        "distance.enum.bytes": bytes_,
        "distance.colsearch.s": tree.inclusive({"distance.low_weight_search"}),
        "distance.colsearch.subsets":
            tree.info_sum({"distance.low_weight_search"}, "subsets"),
        "distance.colsearch.exact_ratio":
            (sum(1 for i in cs if tree.spans[i][4]["exact"]) / len(cs)
             if cs else 0.0),
        "distance.report.calls": len(reports),
        "distance.report.bounds_only":
            sum(1 for i in reports if tree.spans[i][4]["method"] == "bounds-only"),
        "ff.make_field.calls": n({"ff.make_field"}),
        "ff.make_field.built": n({"ff.Field.__init__"}),
        "ff.make_field.s": tree.inclusive({"ff.make_field"}),
        "ff.root_of_unity.s": tree.inclusive({"ff.root_of_unity"}),
        "ff.tables.s": tree.inclusive({"ff.Field.tables"}),
        "poly.minimal_polynomial.calls": n({"poly.minimal_polynomial"}),
        "poly.minimal_polynomial.degree":
            tree.info_sum({"poly.minimal_polynomial"}, "degree"),
        "poly.minimal_polynomial.s": tree.inclusive({"poly.minimal_polynomial"}),
        "cosets.build_cosets.s": tree.inclusive({"cosets.build_cosets"}),
        "codes.construct.calls": n(CONSTRUCT),
        "codes.construct.s": sum((tree.self_s[i] for i in tree.named(CONSTRUCT)),
                                 0.0),
        "families.build.calls": n(FAMILY_BUILD),
        "families.build.s": tree.inclusive(FAMILY_BUILD),
        "verify.cache.get.calls": len(gets),
        "verify.cache.get.hits": hits,
        "verify.cache.get.misses": len(gets) - hits,
        "verify.cache.get.s": tree.inclusive({"verify.ResultCache.get"}),
        "verify.cache.put.calls": n({"verify.ResultCache.put"}),
        "verify.cache.put.s": tree.inclusive({"verify.ResultCache.put"}),
        "verify.cache.put.bytes": tree.info_sum({"verify.ResultCache.put"}, "bytes"),
        "verify.best_code_search.candidates": sum(
            1 for i in tree.named({"codes.NegacyclicCode.from_zeros"})
            if tree.spans[i][3] in best),
        "verify.best_code_search.s": tree.inclusive({"verify.best_code_search"}),
        "pkg.import_s": tree.inclusive({"pkg.import"}),
        "cli.main.s": sum((tree.self_s[i] for i in tree.named({"cli.main"})),
                          0.0),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": top / traced_wall,
    }


def trace_problems(workload: str, tree: SpanTree, trace: dict,
                   metrics: dict, untraced: dict) -> list[str]:
    """The traced counters must agree with the untraced outputs, and no call
    site may have escaped the wrappers."""
    out = []
    if trace.get("missed"):
        out.append(f"unwrapped call sites: {trace['missed']}")
    if not trace.get("rebinds"):
        out.append("no function was wrapped")
    if workload == "family1-large":
        rows = untraced.get("output") or []
        expect = {"distance.report.calls": len(rows),
                  "distance.report.bounds_only": sum(
                      1 for r in rows if r["report"]["method"] == "bounds-only"),
                  "families.build.calls": 2}
    else:
        records = ((untraced.get("cache") or {}).get("records") or {}).values()
        cdr = len(tree.named({"verify.cached_distance_report"}))
        if not cdr:
            out.append("no cached_distance_report call traced")
        # a cold run misses once per record it then puts
        expect = {
            "verify.cache.get.calls": cdr,
            "verify.cache.put.calls": len(records),
            "verify.cache.get.misses": len(records),
            "distance.report.calls": len(records),
            "distance.report.bounds_only": sum(
                1 for r in records if r["method"] == "bounds-only"),
        }
        under_report = lambda i: tree.has_ancestor(
            i, {"distance.distance_report"})
        enum_words = tree.info_sum(ENUM, "codewords", under_report)
        ref_words = sum(r["work"] for r in records
                        if r["method"] == "enumeration")
        if enum_words != ref_words:
            out.append(f"enumerated codewords {enum_words} != "
                       f"cache work {ref_words}")
    for key, want in expect.items():
        if metrics[key] != want:
            out.append(f"{key} = {metrics[key]}, expected {want}")
    return out


def known_defect_count(tree: SpanTree) -> int:
    """Bounds-only reports whose work is 0 although a column search ran."""
    searched = {tree.spans[i][3] for i in tree.named({"distance.low_weight_search"})
                if tree.spans[i][4]["subsets"]}
    return sum(1 for i in tree.named({"distance.distance_report"})
               if i in searched and tree.spans[i][4]["method"] == "bounds-only"
               and tree.spans[i][4]["work"] == 0)


# ---------------------------------------------------------------------------
# entry point

def context(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    import numpy
    return {"workload": args.workload, "why": WORKLOADS[args.workload],
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": loadavg,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "predictions": PREDICTIONS, "notes": NOTES}


def declared_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def check_output(wl: Workload, sample: dict, reference, witness) -> dict:
    if wl.kind == "family1":
        res = check_family1(sample["output"], witness)
    else:
        res = check_manifest(sample["output"], reference, witness)
    if sample["rc"] != 0:
        res["problems"].append(f"exit code {sample['rc']}")
        res["failed"] = res["attempted"]
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "negacyclic", "__init__.py")):
        print("error: run from the root of a negacyclic checkout "
              "(src/negacyclic not found)", file=sys.stderr)
        return 2
    reference = load_json(REFERENCE)
    if reference is None or not os.path.isfile("BENCHMARK.json"):
        print(f"error: {REFERENCE} or BENCHMARK.json missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ctx = context(args)

    wl = WORKLOAD_CLASSES[args.workload]()
    wl.setup()
    if args.trace:
        samples = [wl.iteration("untraced")]
        trace_file = os.path.join(WORK, "trace.json")
        traced = wl.iteration("traced", trace_out=trace_file)
    else:
        # start no iteration that would end past the --seconds window
        samples, t0 = [], time.perf_counter()
        while True:
            samples.append(wl.iteration("iter"))
            typical = statistics.median(s["wall_s"] for s in samples)
            if time.perf_counter() - t0 + typical > args.seconds:
                break
        wl.setup()

    t_check = time.perf_counter()
    witness = WitnessChecker()
    checked = samples + [traced] if args.trace else samples
    results = [check_output(wl, s, reference, witness) for s in checked]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = sorted({p for r in results for p in r["problems"]})
    rows = [r["rows"] for r in results]
    if any(r != rows[0] for r in rows):
        problems.append("verdicts differ between iterations")
        failed, attempted = failed + 1, attempted + 1

    if args.trace:
        trace = load_json(trace_file) or {"spans": []}
        tree = SpanTree(trace["spans"])
        values = layer_metrics(tree, traced["wall_s"], samples[0]["wall_s"])
        extra = trace_problems(args.workload, tree, trace, values, samples[0])
        strip = strip_volatile if wl.kind == "verify" else (lambda x: x)
        if strip(traced["output"] or {}) != strip(samples[0]["output"] or {}):
            extra.append("traced output differs from the untraced output")
        if extra:
            failed, attempted = failed + 1, attempted + 1
            problems += extra
        ctx["module_self_s"] = tree.module_self()
        ctx["spans"] = len(tree.spans)
        ctx["known_defect_bounds_only_work0"] = known_defect_count(tree)
    else:
        first = rows[0] or {}
        med = lambda key: statistics.median(s[key] for s in samples)
        values = {
            "wall_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "setup_s": statistics.median(s["wall_s"] for s in wl.setup_samples),
            "rows_open": first.get("rows_open", -1),
            "bracket_width": first.get("bracket_width", -1),
            "pass_ratio": 1.0 - failed / attempted,
        }

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    ctx.update({
        "iterations": len(samples),
        "samples": [{k: s[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "rc")}
                    for s in samples],
        "setup_samples": [s["wall_s"] for s in wl.setup_samples],
        "check_s": time.perf_counter() - t_check,
        "verdicts": rows[0],
        "problems": problems[:50],
    })
    print(json.dumps({"context": ctx}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
