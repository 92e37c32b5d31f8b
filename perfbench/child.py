"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py --workload verify --out MANIFEST --cache CACHE [--trace-out FILE]
    python3 perfbench/child.py --workload family1 --out REPORTS [--trace-out FILE]

``verify`` runs ``negacyclic.cli.main(["verify", "--scope", "all",
"--threads", "1", ...])``; ``family1`` builds family 1 at rho = 29 and 31
and writes the distance report of each of its four parts.  With
``--trace-out`` the package's public functions are wrapped first (see
tracer.py) and the spans are written to FILE when the iteration ends.  The
exit code is the CLI's, or 0 for family1.
"""

from __future__ import annotations

import argparse
import json
import sys

FAMILY1_RHOS = (29, 31)
FAMILY1_PARTS = ("code", "dual", "companion", "companion_dual")


def run_verify(args) -> int:
    import negacyclic.cli
    return negacyclic.cli.main(["verify", "--scope", "all", "--threads", "1",
                                "--cache", args.cache, "--out", args.out])


def run_family1(args) -> int:
    from negacyclic import distance, families
    rows = []
    for rho in FAMILY1_RHOS:
        built = families.build_family1(rho)
        for part in FAMILY1_PARTS:
            code = getattr(built, part)
            rep = distance.distance_report(code, distance.SearchBudget())
            rows.append({"rho": rho, "part": part, "n": code.n, "k": code.k,
                         "descriptor": code.descriptor(),
                         "report": rep.to_json()})
    with open(args.out, "w") as fh:
        json.dump(rows, fh, sort_keys=True)
    return 0


RUNNERS = {"verify": (run_verify, ("negacyclic.cli",)),
           "family1": (run_family1, ("negacyclic.families",
                                     "negacyclic.distance"))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--cache")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    runner, entry_modules = RUNNERS[args.workload]
    if not args.trace_out:
        return runner(args)

    import importlib
    import time
    import tracer as tr
    t = tr.Tracer()
    t0 = time.perf_counter()
    for name in entry_modules:
        importlib.import_module(name)
    t.record("pkg.import", t0, time.perf_counter())
    rebinds = tr.install(t)
    rc = runner(args)
    with open(args.trace_out, "w") as fh:
        json.dump({"spans": t.spans, "rebinds": rebinds,
                   "missed": tr.missed_call_sites(t)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
