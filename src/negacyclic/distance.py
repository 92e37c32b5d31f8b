"""Exact minimum distances and weight distributions.

Two engines: a blocked full-message enumeration and a meet-in-the-middle
low-weight search over parity-check syndromes for high-rate codes.  The
enumeration precomputes the partial codewords of an inner block of messages
once and stores them bitsliced, as q one-hot uint64 planes per row
(ceil(n/64) words each; table and planes together within 6 MB); the outer
digits walk an odometer over one int8 row b, and each outer step reads the
weights of the whole block with at most q ANDs, q-1 ORs and one popcount,
for any field with index tables (Boothby & Bradshaw, arXiv:0901.1413).
A sphere-packing upper bound (with the even-distance refinement) and the BCH
multiplier bound bracket whatever the engines cannot settle exactly.

Engines only read the code object; outer-message shards may run on several
threads and reduce by (weight, message-index) minimum, so results do not
depend on the inner block size or the shard count.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .codes import CodeError, NegacyclicCode, encode_rows, span_rows


#: Version of the engines' answers; part of every result-cache key, so bump it
#: whenever a change can alter a report (2: bit-plane enumeration, column
#: search work carried into bounds-only reports, column search time cap).
ENGINE_VERSION = 2


class BudgetExceeded(RuntimeError):
    """An engine hit its wall-clock cap before finishing."""


def parse_budget(text) -> int:
    """Accept plain integers or 'B^E' strings like '3^16'."""
    if isinstance(text, int):
        return text
    s = str(text).strip()
    if "^" in s:
        b, e = s.split("^", 1)
        return int(b) ** int(e)
    return int(s)


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the distance engines."""

    max_message_enum: int = 3 ** 16
    max_column_weight: int = 6
    time_cap: Optional[float] = None

    def __post_init__(self):
        if self.max_message_enum < 1 or self.max_column_weight < 0:
            raise ValueError("budget caps must be positive")


@dataclass
class DistanceReport:
    """Lower/upper bracket on the minimum distance, exact when they meet."""

    lower: int
    upper: int
    exact: bool
    method: str                       # enumeration | column-search | bounds-only
    witness: Optional[tuple[int, ...]] = None
    lower_src: str = ""
    upper_src: str = ""
    work: int = 0                     # deterministic step count
    elapsed_s: float = 0.0

    @property
    def d(self) -> int:
        if not self.exact:
            raise ValueError("distance not exact; inspect lower/upper")
        return self.lower

    def to_json(self) -> dict:
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "method": self.method,
            "lower_src": self.lower_src,
            "upper_src": self.upper_src,
            "work": self.work,
        }
        out["witness"] = (",".join(str(v) for v in self.witness)
                          if self.witness is not None else None)
        return out

    @classmethod
    def from_json(cls, d: dict) -> "DistanceReport":
        wit = d.get("witness")
        return cls(
            lower=d["lower"], upper=d["upper"], exact=d["exact"],
            method=d["method"],
            witness=tuple(int(v) for v in wit.split(",")) if wit else None,
            lower_src=d.get("lower_src", ""), upper_src=d.get("upper_src", ""),
            work=d.get("work", 0))


# ---------------------------------------------------------------------------
# blocked enumeration over one-hot bit planes

# bytes of the inner block's int8 table plus its q one-hot planes: enough
# rows that the per-step Python work is small, few enough to stay a few MB
_INNER_BYTES = 6 << 20


def _check_deadline(deadline, what):
    if deadline is not None and time.monotonic() >= deadline:
        raise BudgetExceeded(f"{what} time cap hit")


def _words(n):
    return -(-n // 64)


def _inner_planes(tables, rows):
    """One-hot planes of the partial codewords of every message over a prefix
    of the rows (see _planes), and the prefix length k_in."""
    k, n = rows.shape
    q = tables.q
    row_bytes = n + 8 * q * _words(n)
    k_in, size = 0, 1
    while k_in < k and size * q * row_bytes <= _INNER_BYTES:
        size *= q
        k_in += 1
    k_in = max(k_in, 1)
    return _planes(span_rows(tables, rows[:k_in]), q), k_in


def _bits(mask):
    """Pack the last axis of a boolean array into uint64 words: bit i of word
    w is coordinate 64*w + i, and the padding bits are zero."""
    n = mask.shape[-1]
    out = np.zeros(mask.shape[:-1] + (8 * _words(n),), dtype=np.uint8)
    out[..., :(n + 7) // 8] = np.packbits(mask, axis=-1, bitorder="little")
    return out.view("<u8")


def _planes(A, q):
    """One-hot planes of the inner table: bit i of planes[e][r] is A[r, i] == e."""
    planes = np.empty((q, A.shape[0], _words(A.shape[1])), dtype="<u8")
    for e in range(q):
        planes[e] = _bits(A == e)
    return planes


def _outer_steps(field, tables, rows_out):
    """Per-digit increment and wrap row deltas for the outer odometer."""
    q = tables.q
    inc, wrap = [], []
    elems = [field.from_int(v) for v in range(q)]
    for row in rows_out:
        deltas = np.zeros((q - 1, row.shape[0]), dtype=tables.dtype)
        for v in range(q - 1):
            d_idx = (elems[v + 1] - elems[v]).as_int()
            deltas[v] = tables.mul[d_idx][row]
        inc.append(deltas)
        w_idx = (elems[0] - elems[q - 1]).as_int()
        wrap.append(tables.mul[w_idx][row])
    return inc, wrap


def _walk_shard(field, tables, planes, rows_out, j0, j1, n, mode,
                check_every=4096, deadline=None):
    """Walk outer messages j0..j1-1; returns (hist) or (best_w, best_msg).

    Each outer step reads the weights of all inner codewords A + b from the
    planes: coordinate i of A[r] + b is zero exactly where A[r, i] = -b[i], so
    the zero count of row r is popcount(OR over values v of b of
    planes[-v][r] & (b == v)).
    """
    q = tables.q
    k_out = len(rows_out)
    size = planes.shape[1]
    _check_deadline(deadline, "enumeration")
    digits = _message_digits(q, k_out, j0)
    b = encode_rows(tables, rows_out, digits)
    inc, wrap = _outer_steps(field, tables, rows_out)
    acc = np.empty(planes.shape[1:], dtype=np.uint64)
    hit = np.empty_like(acc)
    zhist = np.zeros(n + 1, dtype=np.int64)
    best_w, best_msg = n + 1, -1
    for j in range(j0, j1):
        if j > j0:
            pos = 0
            while digits[pos] == q - 1:
                digits[pos] = 0
                b = tables.add[b, wrap[pos]]
                pos += 1
            b = tables.add[b, inc[pos][digits[pos]]]
            digits[pos] += 1
            if (j - j0) % check_every == 0:
                _check_deadline(deadline, "enumeration")
                direct = encode_rows(tables, rows_out, digits)
                if not np.array_equal(b, direct):  # pragma: no cover
                    raise AssertionError("odometer codeword drifted from direct encoding")
        vals = np.unique(b)
        masks = _bits(b[None, :] == vals[:, None])
        np.bitwise_and(planes[tables.neg[vals[0]]], masks[0], out=acc)
        for v, m in zip(vals[1:], masks[1:]):
            np.bitwise_and(planes[tables.neg[v]], m, out=hit)
            np.bitwise_or(acc, hit, out=acc)
        zeros = np.bitwise_count(acc).sum(axis=1, dtype=np.int16)
        if mode == "hist":
            zhist += np.bincount(zeros, minlength=n + 1)
        else:
            # the most zeros is the least weight; skip the zero message
            i = int(np.argmax(zeros[1:])) + 1 if j == 0 else int(np.argmax(zeros))
            w = n - int(zeros[i])
            if w < best_w:
                best_w, best_msg = w, j * size + i
    if mode == "hist":
        return zhist[::-1]
    return best_w, best_msg


def _message_digits(q, k, msg_index):
    return [(msg_index // q ** r) % q for r in range(k)]


def _enum(code, mode, budget: SearchBudget, threads: int = 1):
    tables = code.field.tables()
    q = tables.q
    k, n = code.k, code.n
    if k == 0:
        if mode == "hist":
            hist = np.zeros(n + 1, dtype=np.int64)
            hist[0] = 1
            return hist
        raise CodeError("the zero code has no nonzero codeword")
    if q ** k > budget.max_message_enum:
        return None
    rows = np.asarray(code.rows(), dtype=tables.dtype)
    planes, k_in = _inner_planes(tables, rows)
    rows_out = rows[k_in:]
    outer_total = q ** (k - k_in)
    deadline = (time.monotonic() + budget.time_cap
                if budget.time_cap is not None else None)
    # self-check the running codeword about once per 2^20 enumerated messages
    check_every = max(1, (1 << 20) // planes.shape[1])
    threads = max(1, min(threads, outer_total))
    bounds = [outer_total * t // threads for t in range(threads + 1)]
    shards = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if len(shards) == 1:
        results = [_walk_shard(code.field, tables, planes, rows_out,
                               shards[0][0], shards[0][1], n, mode,
                               check_every, deadline)]
    else:
        with ThreadPoolExecutor(max_workers=len(shards)) as ex:
            futs = [ex.submit(_walk_shard, code.field, tables, planes, rows_out,
                              a, b, n, mode, check_every, deadline)
                    for a, b in shards]
            results = [f.result() for f in futs]
    if mode == "hist":
        return sum(results)
    best_w, best_msg = min(results)
    return best_w, best_msg


def exact_distance_enum(code, budget: Optional[SearchBudget] = None,
                        threads: int = 1) -> Optional[DistanceReport]:
    """Exact minimum weight over all q^k - 1 nonzero codewords.

    Returns None when q^k exceeds the enumeration budget (caller falls back).
    """
    budget = budget or SearchBudget()
    t0 = time.monotonic()
    got = _enum(code, "min", budget, threads)
    if got is None:
        return None
    best_w, best_msg = got
    digits = _message_digits(code.field.tables().q, code.k, best_msg)
    witness = tuple(int(v) for v in code.encode(digits))
    return DistanceReport(
        lower=best_w, upper=best_w, exact=True, method="enumeration",
        witness=witness, lower_src="enumeration", upper_src="enumeration",
        work=code.field.order ** code.k,
        elapsed_s=time.monotonic() - t0)


def weight_distribution(code, budget: Optional[SearchBudget] = None,
                        threads: int = 1) -> Optional[dict[int, int]]:
    """Counts A_w of codewords of each weight w; None when over budget."""
    budget = budget or SearchBudget()
    hist = _enum(code, "hist", budget, threads)
    if hist is None:
        return None
    return {w: int(c) for w, c in enumerate(hist) if c}


# ---------------------------------------------------------------------------
# meet-in-the-middle low-weight search

def _side_syndromes(tables, colsT, subsets, coeff_tuple):
    syn = tables.mul[coeff_tuple[0]][colsT[subsets[:, 0]]]
    for j, c in enumerate(coeff_tuple[1:], start=1):
        syn = tables.add[syn, tables.mul[c][colsT[subsets[:, j]]]]
    return syn


def _subsets(n, t):
    """All t-subsets of range(n) as rows, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), t))
    return np.fromiter(flat, dtype=np.int64, count=comb(n, t) * t).reshape(-1, t)


def _level_search(tables, colsT, powers, w, n, deadline=None):
    """Search for a weight-exactly-w dependence among the n columns.

    Splits the support as (first t, last w-t) of the sorted support; the left
    side enumerates all coefficient tuples, the right side pins its top
    coefficient to 1 (one representative per scalar multiple).  A key match
    with max(left support) < min(right support) is a genuine codeword.
    The deadline is checked before each chunk of right-side subsets.
    """
    q = tables.q
    t_size = w // 2
    u_size = w - t_size
    # left side
    if t_size == 0:
        left_keys = np.zeros(1, dtype=np.int64)
        left_max = np.full(1, -1, dtype=np.int32)
        left_sub = np.zeros((1, 0), dtype=np.int64)
        left_cf: list[tuple[int, ...]] = [()]
        left_cf_id = np.zeros(1, dtype=np.int32)
    else:
        subs = _subsets(n, t_size)
        keys_parts, max_parts, sub_parts, cf_id_parts = [], [], [], []
        left_cf = list(itertools.product(range(1, q), repeat=t_size))
        for cid, cf in enumerate(left_cf):
            syn = _side_syndromes(tables, colsT, subs, cf)
            keys_parts.append(syn.astype(np.int64) @ powers)
            max_parts.append(subs[:, -1].astype(np.int32))
            sub_parts.append(np.arange(len(subs), dtype=np.int32))
            cf_id_parts.append(np.full(len(subs), cid, dtype=np.int32))
        left_keys = np.concatenate(keys_parts)
        left_max = np.concatenate(max_parts)
        left_sub_idx = np.concatenate(sub_parts)
        left_cf_id = np.concatenate(cf_id_parts)
        left_sub = subs
    order = np.argsort(left_keys, kind="stable")
    lk = left_keys[order]
    lmax = left_max[order]
    if t_size:
        lsub = left_sub_idx[order]
        lcf = left_cf_id[order]
    # right side
    rsubs = _subsets(n, u_size)
    right_cf = [cf + (1,) for cf in
                itertools.product(range(1, q), repeat=u_size - 1)]
    chunk = 300_000
    for cf in right_cf:
        for s0 in range(0, len(rsubs), chunk):
            _check_deadline(deadline, "column search")
            sub_c = rsubs[s0:s0 + chunk]
            syn = _side_syndromes(tables, colsT, sub_c, cf)
            need = tables.neg[syn].astype(np.int64) @ powers
            lo = np.searchsorted(lk, need, side="left")
            hi = np.searchsorted(lk, need, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                continue
            r_idx = np.repeat(np.arange(len(sub_c)), counts)
            offs = np.concatenate([[0], np.cumsum(counts)])
            pos = (np.arange(total) - np.repeat(offs[:-1], counts)
                   + np.repeat(lo, counts))
            ok = lmax[pos] < sub_c[r_idx, 0]
            if not ok.any():
                continue
            hit = int(np.nonzero(ok)[0][0])
            p, ri = int(pos[hit]), int(r_idx[hit])
            positions = list(sub_c[ri])
            coeffs = list(cf)
            if t_size:
                positions = list(left_sub[lsub[p]]) + positions
                coeffs = list(left_cf[lcf[p]]) + coeffs
            word = np.zeros(n, dtype=tables.dtype)
            for pp, cc in zip(positions, coeffs):
                word[pp] = cc
            return word
    return None


def low_weight_search(code, w_max: Optional[int] = None,
                      budget: Optional[SearchBudget] = None) -> DistanceReport:
    """Find the minimum weight w <= w_max via parity-check column dependence.

    Returns an exact report with a witness when a word is found, otherwise the
    lower bound w_max + 1.  Raises BudgetExceeded past budget.time_cap.
    """
    budget = budget or SearchBudget()
    if w_max is None:
        w_max = budget.max_column_weight
    t0 = time.monotonic()
    deadline = t0 + budget.time_cap if budget.time_cap is not None else None
    tables = code.field.tables()
    q = tables.q
    H = np.asarray(code.dual_rows(), dtype=tables.dtype)
    r, n = H.shape if H.size else (0, code.n)
    if r == 0:
        # full space: any unit vector
        word = tuple(1 if i == 0 else 0 for i in range(code.n))
        return DistanceReport(1, 1, True, "column-search", word,
                              "search", "search", 1, time.monotonic() - t0)
    if q ** r >= 2 ** 62:
        raise CodeError("syndrome space too large for integer keys")
    powers = (q ** np.arange(r)).astype(np.int64)
    colsT = np.ascontiguousarray(H.T)
    work = 0
    for w in range(1, w_max + 1):
        _check_deadline(deadline, "column search")
        work += comb(n, w // 2) + comb(n, w - w // 2)
        word = _level_search(tables, colsT, powers, w, n, deadline)
        if word is not None:
            if not code.contains(word):  # pragma: no cover
                raise AssertionError("column search produced a non-codeword")
            return DistanceReport(
                lower=w, upper=w, exact=True, method="column-search",
                witness=tuple(int(v) for v in word),
                lower_src="column-search", upper_src="column-search",
                work=work, elapsed_s=time.monotonic() - t0)
    return DistanceReport(
        lower=w_max + 1, upper=code.n, exact=False, method="column-search",
        witness=None, lower_src=f"no dependence up to {w_max} columns",
        upper_src="trivial", work=work, elapsed_s=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# bounds

def sphere_packing_max_d(n: int, k: int, q: int) -> int:
    """Largest d compatible with the Hamming volume bound, where even d must
    also pass the even-distance refinement."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    cap = q ** (n - k)
    cap_even = q ** (n - 1 - k) if n - 1 - k >= 0 else 0
    best = 0
    vol = 0
    for d in range(1, n + 1):
        if d % 2 == 1:
            vol += comb(n, (d - 1) // 2) * (q - 1) ** ((d - 1) // 2)
        if vol > cap:
            break
        if d % 2 == 0:
            vol_even = sum(comb(n - 1, i) * (q - 1) ** i
                           for i in range((d - 2) // 2 + 1))
            if vol_even > cap_even:
                continue
        best = d
    return best


def bch_lower(code) -> tuple[int, int]:
    """(bound, multiplier) from the exhaustive BCH multiplier search."""
    if isinstance(code, NegacyclicCode):
        v, b = code.best_bch_multiplier()
        return b, v
    return 1, 1


# ---------------------------------------------------------------------------
# dispatch

def distance_report(code, budget: Optional[SearchBudget] = None,
                    threads: int = 1) -> DistanceReport:
    """Policy: enumerate when q^k fits the budget; otherwise run the column
    search up to min(cap, packing bound + 1); otherwise report bounds only,
    with the work of any column search that ran.  An engine that hits
    budget.time_cap falls through to the next step."""
    budget = budget or SearchBudget()
    q, k, n = code.field.order, code.k, code.n
    if k == 0:
        raise CodeError("the zero code has no distance report")
    pack = sphere_packing_max_d(n, k, q)
    bch, bch_v = bch_lower(code)
    try:
        rep = exact_distance_enum(code, budget, threads)
    except BudgetExceeded:
        rep = None
    if rep is not None:
        if not (bch <= rep.lower <= pack):  # pragma: no cover
            raise AssertionError(
                f"bounds violated: bch={bch} d={rep.lower} packing={pack}")
        return rep
    w_cap = min(budget.max_column_weight, pack + 1)
    if q ** (n - k) >= 2 ** 62:
        w_cap = 0  # syndrome keys would overflow; bounds only
    lower, work = bch, 0
    if w_cap >= 1:
        try:
            rep = low_weight_search(code, w_cap, budget)
        except BudgetExceeded:
            pass  # time cap hit: bounds only
        else:
            if rep.exact:
                if not (bch <= rep.lower <= pack):  # pragma: no cover
                    raise AssertionError(
                        f"bounds violated: bch={bch} d={rep.lower} packing={pack}")
                return rep
            lower, work = max(bch, rep.lower), rep.work
    lower_src = f"bch(v={bch_v})" if lower == bch else f"column-search w<={w_cap}"
    return DistanceReport(
        lower=lower, upper=pack, exact=(lower == pack), method="bounds-only",
        witness=None, lower_src=lower_src, upper_src="sphere-packing",
        work=work)
