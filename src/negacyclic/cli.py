"""Command-line front end.

Every subcommand prints JSON to stdout (or --out FILE).  Exit codes: 0 for
success (including bound-only verification outcomes), 2 when verification
finds a mismatch, 3 for usage errors.  A bad argument value (a composite
characteristic, a reducible modulus, an unreadable or malformed descriptor)
is a usage error too; every usage error is one "...: error: ..." line on
stderr.
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


THREADS_HELP = ("1..cpu count; accepted and checked, but unused: every "
                "distance engine runs on one thread")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _threads(text: str) -> int:
    """--threads: an integer in 1..os.cpu_count() (see THREADS_HELP)."""
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
    if getattr(args, "budget", None):
        kw["max_message_enum"] = parse_budget(args.budget)
    if getattr(args, "w_max", None) is not None:
        kw["max_column_weight"] = args.w_max
    return SearchBudget(**kw)


def _cache(args) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(getattr(args, "cache", None))


def main(argv=None) -> int:
    ap = _Parser(prog="negacyclic",
                 description="ternary negacyclic code toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("field", help="construct GF(p^m)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modulus")
    p.add_argument("--out")

    p = sub.add_parser("cosets", help="q-cyclotomic cosets mod N")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-mod", type=int, required=True, dest="n_mod")
    p.add_argument("--out")

    p = sub.add_parser("build", help="build a code from check cosets or generator")
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
    p.add_argument("--out")

    for name, hlp in (("dual", "dual of a code descriptor"),
                      ("psi", "cyclic image under x -> -x (odd length)"),
                      ("decompose", "even-length residue decomposition")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--code", required=True, help="descriptor file or -")
        p.add_argument("--out")

    p = sub.add_parser("distance", help="distance report for a code descriptor")
    p.add_argument("--code", required=True)
    p.add_argument("--budget", default=None, help="e.g. 3^16")
    p.add_argument("--w-max", type=int, default=None, dest="w_max")
    p.add_argument("--threads", type=_threads, default=1, help=THREADS_HELP)
    p.add_argument("--cache", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("family", help="build one of the four families")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--rho", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--host-modulus")
    p.add_argument("--out")

    p = sub.add_parser("best", help="best negacyclic/cyclic distance at (n, k)")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lam", type=int, default=-1, choices=(-1, 1))
    p.add_argument("--budget", default=None)
    p.add_argument("--threads", type=_threads, default=1, help=THREADS_HELP)
    p.add_argument("--cache", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run a verification scope")
    p.add_argument("--scope", default="all")
    p.add_argument("--budget", default=None)
    p.add_argument("--w-max", type=int, default=None, dest="w_max")
    p.add_argument("--threads", type=_threads, default=1, help=THREADS_HELP)
    p.add_argument("--cache", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--render", action="store_true",
                   help="also print a plain-text table to stderr")
    p.add_argument("--out")

    args = ap.parse_args(argv)
    try:
        return _run(ap, args)
    except BrokenPipeError:
        raise  # the reader of stdout went away: not a usage error
    except (ValueError, OSError) as exc:
        ap.error(str(exc))


def _run(ap: _Parser, args) -> int:
    if args.cmd == "field":
        f = make_field(args.p, args.m, _int_list(args.modulus, "--modulus"))
        _emit(f.descriptor(), args.out)
        return 0

    if args.cmd == "cosets":
        _emit(build_cosets(args.q, args.n_mod).to_json(), args.out)
        return 0

    if args.cmd == "build":
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
        _emit(code.descriptor(), args.out)
        return 0

    if args.cmd == "dual":
        _emit(_load_code(args.code).dual().descriptor(), args.out)
        return 0

    if args.cmd == "psi":
        _emit(_load_code(args.code).psi_image().descriptor(), args.out)
        return 0

    if args.cmd == "decompose":
        code = _load_code(args.code)
        r1, r2, lam = code.residue_decompose()
        _emit({"lambda_sqrt": lam.as_int(),
               "res_minus": r1.descriptor(),
               "res_plus": r2.descriptor()}, args.out)
        return 0

    if args.cmd == "distance":
        code = _load_code(args.code)
        rep = cached_distance_report(code, _budget(args), _cache(args))
        _emit(rep.to_json(), args.out)
        return 0

    if args.cmd == "family":
        host_mod = _int_list(args.host_modulus, "--host-modulus")
        if args.id == 1:
            if args.rho is None:
                ap.error("--rho required for family 1")
            b = build_family1(args.rho, host_mod)
            payload = {"code": b.code.descriptor(),
                       "companion": b.companion.descriptor(),
                       "h_exponent": b.h_exponent,
                       "claims": {k: c.to_json() for k, c in b.claims.items()}}
        elif args.id == 2:
            if args.ell is None or args.n is None:
                ap.error("--ell and --n required for family 2")
            b = build_family2(args.ell, args.n, host_mod)
            payload = {"code": b.code.descriptor(), "variant": b.variant,
                       "claims": {k: c.to_json() for k, c in b.claims.items()}}
        elif args.id == 3:
            if args.m is None or args.n is None:
                ap.error("--m and --n required for family 3")
            b = build_family3(args.m, args.n, host_mod)
            payload = {"code": b.code.descriptor(), "variant": b.variant,
                       "claims": {k: c.to_json() for k, c in b.claims.items()}}
        else:
            if args.j is None or args.m is None:
                ap.error("--j and --m required for family 4")
            if host_mod is not None:
                ap.error("--host-modulus is not accepted for family 4")
            b = build_family4(args.j, args.m)
            payload = {"code": b.code.descriptor(),
                       "claims": {k: c.to_json() for k, c in b.claims.items()}}
        _emit(payload, args.out)
        return 0

    if args.cmd == "best":
        d, gen, code = best_code_search(args.q, args.n, args.k, args.lam,
                                        _budget(args), _cache(args))
        _emit({"d": d, "generator": gen.to_text(),
               "code": code.descriptor()}, args.out)
        return 0

    if args.cmd == "verify":
        manifest = verify_claims(args.scope, _budget(args), _cache(args))
        _emit(manifest.to_json(), args.out)
        if args.render:
            print(render_scope(manifest), file=sys.stderr)
        return manifest.exit_code

    ap.error(f"unknown command {args.cmd}")  # pragma: no cover
    return 3


if __name__ == "__main__":
    sys.exit(main())
