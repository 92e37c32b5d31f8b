"""Command-line front end.

Every subcommand prints one JSON payload to stdout (or --out FILE); the
options several share (--out, --code, the engine options and --w-max) are
declared once, in parent parsers.  Exit codes: 0 for success (including
bound-only verification outcomes), 2 when verification finds a mismatch, 3
for usage errors.  A bad argument value (a composite characteristic, a
reducible modulus, an unreadable or malformed descriptor) is a usage error
too, as is a best d that the budget leaves unsettled; every usage error is
one "...: error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Optional

from .codes import DescriptorError, NegacyclicCode
from .cosets import build_cosets
from .distance import SearchBudget, parse_budget
from .families import (build_family1, build_family2, build_family3,
                       build_family4)
from .ff import make_field
from .poly import Poly
from .verify import (ResultCache, best_code_search, cached_distance_report,
                     render_scope, verify_claims)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _threads(text: str) -> int:
    """--threads: an integer in 1..os.cpu_count(), checked but unused."""
    cpus = os.cpu_count() or 1
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or not 1 <= n <= cpus:
        raise argparse.ArgumentTypeError(f"must be an integer in 1..{cpus}, "
                                         f"got {text!r}")
    return n


def _int_list(text: Optional[str], option: str) -> Optional[list[int]]:
    """A comma-separated integer option's value, or None when not given;
    an empty value is an error, not the default."""
    if text is None:
        return None
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} {text!r} must be comma-separated "
                         "integers") from None  # never Python's own message


def _emit(payload: dict, out: Optional[str]):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_code(path: str) -> NegacyclicCode:
    with (nullcontext(sys.stdin) if path == "-" else open(path)) as fh:
        try:
            return NegacyclicCode.from_descriptor(json.load(fh))
        except DescriptorError as exc:
            raise ValueError(f"malformed code descriptor {path}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, TypeError,
                AttributeError) as exc:
            raise ValueError(
                f"malformed code descriptor {path}: {exc!r}") from exc


def _budget(args) -> SearchBudget:
    kw = {}
    if args.budget:
        kw["max_message_enum"] = parse_budget(args.budget)
    if getattr(args, "w_max", None) is not None:   # best takes no --w-max
        kw["max_column_weight"] = args.w_max
    return SearchBudget(**kw)


def _cache(args) -> Optional[ResultCache]:
    return None if args.no_cache else ResultCache(args.cache)


def main(argv=None) -> int:
    ap = _Parser(prog="negacyclic",
                 description="ternary negacyclic code toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)
    # option groups, each declared once and shared through parents=
    out, code, engine, w_max = (argparse.ArgumentParser(add_help=False)
                                for _ in range(4))
    out.add_argument("--out")
    code.add_argument("--code", required=True, help="descriptor file or -")
    engine.add_argument("--budget", default=None, help="e.g. 3^16")
    engine.add_argument("--threads", type=_threads, default=1,
                        help="1..cpu count; accepted and checked, but unused: "
                             "every distance engine runs on one thread")
    engine.add_argument("--cache", default=None)
    engine.add_argument("--no-cache", action="store_true")
    w_max.add_argument("--w-max", type=int, default=None, dest="w_max")

    def command(name, hlp, *groups):
        return sub.add_parser(name, help=hlp, parents=[*groups, out])

    p = command("field", "construct GF(p^m)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modulus")

    p = command("cosets", "q-cyclotomic cosets mod N")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-mod", type=int, required=True, dest="n_mod")

    p = command("build", "build a code from check cosets or generator")
    p.add_argument("--q", type=int, default=3,
                   help="characteristic p of the base field GF(p^base-m)")
    p.add_argument("--base-m", type=int, default=1)
    p.add_argument("--base-modulus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", help="comma-separated check coset leaders")
    p.add_argument("--zeros", help="comma-separated zero coset leaders")
    p.add_argument("--generator", help="generator polynomial, ascending coeffs")
    p.add_argument("--lam", type=int, default=-1, choices=(-1, 1))
    p.add_argument("--host-modulus")

    command("dual", "dual of a code descriptor", code)
    command("psi", "cyclic image under x -> -x (odd length)", code)
    command("decompose", "even-length residue decomposition", code)
    command("distance", "distance report for a code descriptor",
            code, engine, w_max)

    p = command("family", "build one of the four families")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4))
    for name in ("rho", "ell", "m", "n", "j"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--host-modulus")

    p = command("best", "best negacyclic/cyclic distance at (n, k)", engine)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lam", type=int, default=-1, choices=(-1, 1))

    p = command("verify", "run a verification scope", engine, w_max)
    p.add_argument("--scope", default="all")
    p.add_argument("--render", action="store_true",
                   help="also print a plain-text table to stderr")

    args = ap.parse_args(argv)
    try:
        return _run(ap, args)
    except BrokenPipeError:
        raise  # the reader of stdout went away: not a usage error
    except (ValueError, OSError) as exc:
        ap.error(str(exc))


def _family(ap: _Parser, args) -> dict:
    # errors in this order: a malformed --host-modulus, a missing family
    # option, family 4's refusal of --host-modulus
    host_mod = _int_list(args.host_modulus, "--host-modulus")
    names = {1: ("rho",), 2: ("ell", "n"), 3: ("m", "n"), 4: ("j", "m")}[args.id]
    values = [getattr(args, name) for name in names]
    if None in values:
        ap.error(" and ".join(f"--{name}" for name in names)
                 + f" required for family {args.id}")
    if args.id == 4 and host_mod is not None:
        ap.error("--host-modulus is not accepted for family 4")
    # looked up at call time, so that a rebound module name is the one called
    build = (build_family1, build_family2, build_family3,
             build_family4)[args.id - 1]
    b = build(*values) if args.id == 4 else build(*values, host_mod)
    payload = {"code": b.code.descriptor(),
               "claims": {k: c.to_json() for k, c in b.claims.items()}}
    if args.id == 1:
        payload.update(companion=b.companion.descriptor(),
                       h_exponent=b.h_exponent)
    elif args.id in (2, 3):
        payload["variant"] = b.variant
    return payload


def _run(ap: _Parser, args) -> int:
    if args.cmd == "field":
        payload = make_field(args.p, args.m,
                             _int_list(args.modulus, "--modulus")).descriptor()
    elif args.cmd == "cosets":
        payload = build_cosets(args.q, args.n_mod).to_json()
    elif args.cmd == "build":
        base = make_field(args.q, args.base_m,
                          _int_list(args.base_modulus, "--base-modulus"))
        host_mod = _int_list(args.host_modulus, "--host-modulus")
        given = [x for x in (args.check, args.zeros, args.generator) if x]
        if len(given) != 1:
            ap.error("give exactly one of --check/--zeros/--generator")
        if args.check:
            leaders = _int_list(args.check, "--check")
            code = NegacyclicCode.from_check(base, args.n, leaders, args.lam, host_mod)
        elif args.zeros:
            leaders = _int_list(args.zeros, "--zeros")
            code = NegacyclicCode.from_zeros(base, args.n, leaders, args.lam, host_mod)
        else:
            g = Poly.from_indices(base,
                                  _int_list(args.generator, "--generator"))
            code = NegacyclicCode.from_generator(base, args.n, g, args.lam, host_mod)
        payload = code.descriptor()
    elif args.cmd == "dual":
        payload = _load_code(args.code).dual().descriptor()
    elif args.cmd == "psi":
        payload = _load_code(args.code).psi_image().descriptor()
    elif args.cmd == "decompose":
        r1, r2, lam = _load_code(args.code).residue_decompose()
        payload = {"lambda_sqrt": lam.as_int(),
                   "res_minus": r1.descriptor(),
                   "res_plus": r2.descriptor()}
    elif args.cmd == "distance":
        payload = cached_distance_report(_load_code(args.code), _budget(args),
                                         _cache(args)).to_json()
    elif args.cmd == "family":
        payload = _family(ap, args)
    elif args.cmd == "best":
        rep, code = best_code_search(args.q, args.n, args.k, args.lam,
                                     _budget(args), _cache(args))
        if not rep.exact:
            raise ValueError(f"best d at n = {args.n}, k = {args.k}, lam = "
                             f"{args.lam} is not settled within budget: "
                             f"{rep.lower}..{rep.upper}")
        payload = {"d": rep.d, "generator": code.g.to_text(),
                   "code": code.descriptor()}
    else:
        manifest = verify_claims(args.scope, _budget(args), _cache(args))
        payload = manifest.to_json()
    _emit(payload, args.out)
    if args.cmd != "verify":
        return 0
    if args.render:
        print(render_scope(manifest), file=sys.stderr)
    return manifest.exit_code


if __name__ == "__main__":
    sys.exit(main())
