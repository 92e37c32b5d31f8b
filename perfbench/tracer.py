"""Span recording installed from outside the package.

``install`` wraps every public module-level function of the package's
modules, plus a few named methods, so that each call records a span
``(name, start, end, parent)`` in memory.  Functions are rebound at every
place they are looked up: the package binds names with ``from .x import y``,
so each module namespace that holds the original object gets the wrapper,
not only the defining module.  ``missed_call_sites`` then scans the loaded
package for any original left behind.

Some spans carry an ``info`` dict with work counters computed from the
call's arguments and result (codewords enumerated, column subsets searched,
cache hits, bytes written).  Spans are kept in a list and written out once,
by the caller, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from math import comb

MODULES = ("cli", "ff", "poly", "cosets", "codes", "distance", "families",
           "verify")

# (module, class, attribute) of the methods wrapped besides module functions
METHODS = (
    ("ff", "Field", "__init__"),
    ("ff", "Field", "tables"),
    ("codes", "NegacyclicCode", "from_zeros"),
    ("codes", "NegacyclicCode", "from_check"),
    ("codes", "NegacyclicCode", "from_generator"),
    ("codes", "NegacyclicCode", "dual"),
    ("verify", "ResultCache", "get"),
    ("verify", "ResultCache", "put"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent, info]
        self._stack: list[int] = []
        self._originals: dict = {}  # original callable -> wrapper

    def record(self, name: str, start: float, end: float):
        """A top-level span that is not a function call."""
        self.spans.append([name, start, end, -1, None])

    def wrap(self, name: str, fn, on_exit=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, None]
            if on_exit is not None:
                spans[idx][4] = on_exit(args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper


# ---------------------------------------------------------------------------
# work counters, computed from a wrapped call's arguments and result

def _enum_info(args, kwargs, result):
    code = args[0] if args else kwargs["code"]
    if result is None:
        words = 0
    elif isinstance(result, dict):          # weight_distribution
        words = sum(result.values())
    else:                                   # exact_distance_enum
        words = code.field.order ** code.k
    return {"codewords": words, "n": code.n}


def _colsearch_info_factory(fn, default_budget):
    sig = inspect.signature(fn)

    def info(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        code, w_max, budget = (bound.arguments["code"], bound.arguments["w_max"],
                               bound.arguments["budget"])
        if w_max is None:
            w_max = (budget or default_budget).max_column_weight
        n = code.n
        if code.k == n:                     # full space: no search runs
            levels = 0
        else:
            levels = result.lower if result.exact else w_max
        subsets = sum(comb(n, w // 2) + comb(n, w - w // 2)
                      for w in range(1, levels + 1))
        return {"subsets": subsets, "exact": bool(result.exact),
                "report_work": result.work}
    return info


def _report_info(args, kwargs, result):
    return {"method": result.method, "work": result.work}


def _minpoly_info(args, kwargs, result):
    return {"degree": result.degree}


def _cache_get_info(args, kwargs, result):
    return {"hit": result is not None}


def _cache_put_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0].path)}


def _hooks(distance):
    return {
        "distance.exact_distance_enum": _enum_info,
        "distance.weight_distribution": _enum_info,
        "distance.low_weight_search":
            _colsearch_info_factory(distance.low_weight_search,
                                    distance.SearchBudget()),
        "distance.distance_report": _report_info,
        "poly.minimal_polynomial": _minpoly_info,
        "verify.ResultCache.get": _cache_get_info,
        "verify.ResultCache.put": _cache_put_info,
    }


# ---------------------------------------------------------------------------
# installation

def _is_public_function(mod, attr, obj) -> bool:
    return (not attr.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "negacyclic"
                                  or name.startswith("negacyclic."))]


def install(tracer: Tracer) -> int:
    """Wrap the package's public functions and METHODS; return the number of
    namespace bindings replaced."""
    mods = {name: importlib.import_module(f"negacyclic.{name}")
            for name in MODULES}
    hooks = _hooks(mods["distance"])

    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if _is_public_function(mod, attr, obj):
                name = f"{layer}.{attr}"
                tracer._originals[obj] = tracer.wrap(name, obj, hooks.get(name))

    for layer, cls_name, attr in METHODS:
        cls = getattr(mods[layer], cls_name)
        raw = cls.__dict__[attr]
        name = f"{layer}.{cls_name}.{attr}"
        if isinstance(raw, classmethod):
            fn = raw.__func__
            wrapped = classmethod(tracer.wrap(name, fn, hooks.get(name)))
        else:
            fn = raw
            wrapped = tracer.wrap(name, fn, hooks.get(name))
        tracer._originals[fn] = wrapped
        setattr(cls, attr, wrapped)

    rebinds = 0
    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            try:
                wrapper = tracer._originals.get(obj)
            except TypeError:               # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                rebinds += 1
    return rebinds


def missed_call_sites(tracer: Tracer) -> list[str]:
    """Names in the loaded package that still bind an unwrapped original."""
    missed = []
    for mod in _package_modules():
        namespaces = [(mod.__name__, vars(mod))]
        namespaces += [(f"{mod.__name__}.{k}", vars(v))
                       for k, v in vars(mod).items()
                       if isinstance(v, type) and v.__module__ == mod.__name__]
        for where, ns in namespaces:
            for attr, obj in ns.items():
                fn = obj.__func__ if isinstance(obj, classmethod) else obj
                try:
                    if fn in tracer._originals:
                        missed.append(f"{where}.{attr}")
                except TypeError:
                    continue
    return missed
