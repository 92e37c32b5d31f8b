"""Exact minimum distances and weight distributions.

Two exact distance engines: a Brouwer-Zimmermann information-set search for
low-rate codes and a meet-in-the-middle low-weight search over
parity-check syndromes for high-rate codes.  A blocked full-message
enumeration serves weight distributions.  All keep vectors in one
bitsliced layout (Boothby & Bradshaw, arXiv:0901.1413): an element index of
GF(p^s) is its string of s base-p digits, and a vector of L entries is p
one-hot planes of ceil(L / (64 // s)) uint64 words, entry i taking s
adjacent bits of word i // (64 // s), one per digit (_digit_planes).
Adding vectors adds digits mod p for every field, by the one-hot cyclic
convolution z_k = OR_i x_i & y_(k-i mod p) (_plane_add), and negation
permutes planes.  An entry of a sum is zero where plane 0 holds all s of
its bits, which one kernel counts for every engine (_zero_counts).
The enumeration holds an inner block A, every word of the first ceil(k/2)
rows (fewer when A would not fit one run of _CHUNK plane words), and
pairs it with sums c of the K other rows: the zero counts of A + c give
the whole block's weights.  Weights are invariant under scalar multiples,
so the walk is projective: besides c = 0 (A alone) it takes only the
pinned sums, whose top coefficient is the field's one, (q^K - 1)/(q - 1)
of the q^K - 1, and counts each q - 1 times.
All three engines take their vectors from one colex-ordered table builder
(_colex_entries): the sums of j rows (or columns) with nonzero
coefficients, ordered by top row, so the sums on rows [0, l) are a prefix
of T_j.  Tables are filled in blocks while they fit _TABLE_WORDS words
per plane; any other entry is unranked to its top row and coefficient and
built from the shorter sums, one block at a time.  The enumeration and the
information-set search pair a block of entries with a table slice through
one kernel (_pair_zeros), whose runs of pairs hold _CHUNK = 2^15 plane
words (256 KB a buffer); a block of entries, or a batch of key matches,
holds half of that, so the buffers an engine streams stay small next to
its tables.
A syndrome of the column search fits one word per plane (r <= 64 // s;
it refuses any other code).  Its left side is T_t of the columns of H,
sorted on 64-bit keys, a hash of the planes whose low bits carry the
entry's colex rank; its right side, the pinned sums, is probed block by
block, and every key match is compared plane by plane before it can yield
a word, so hash collisions cost time, never answers.
The information-set search holds the sums of t of the redundancy parts of
a generator matrix in reduced row-echelon form in one colex table, in as
many words as r takes.  A message of weight w is a top part of w - t rows
plus a sum on the rows below them, which is a prefix of the table, so a
level is tested without gathering an operand.  For a constacyclic code
the words of weight w on window [0, k) stand, through the constashift, for
those of every window [j, j + k) mod n, so an unmet word weighs at least
ceil(n(w + 1)/k); the search stops once that bound reaches the least
weight found, or, short of that, at the first level W where the disjoint
windows [jk, (j+1)k) give L(W) above a given reach, and proves the finer
bound at W.  No later level reads a table the last level W would build,
so W pairs two-row top parts with T_(W-2) when they are fewer vectors
than T_(W-1).
distance_report runs at most one engine, the one _plan picks because it
counts fewer words: to settle d, the column search (when it reaches the
ceiling U) or the information-set search; when neither can, to prove
d > w_cap, the column search to w_cap or the information-set search, which
then goes on to the deepest level whose words fit both the budget and the
column search's price for that proof (never short of reach w_cap).  The
ceiling U = upper_bound(n, k, q) holds for every linear [n, k]_q code: the
least of the Singleton, Griesmer and sphere-packing (with the
even-distance refinement) bounds, lowered by the residual-code step.  U
and the BCH multiplier bound bracket whatever the engines cannot settle
exactly; _plan also gives that bounds-only report, so the format of a
lower bound's source (lower_src) is known to this module alone.  Engines
only read the code object.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from math import comb, prod
from typing import Optional

import numpy as np

from .codes import (CodeError, ConstacyclicCode, NegacyclicCode, encode_rows,
                    rref)


#: Version of the engines' answers; part of every result-cache key, so bump it
#: whenever a change can alter a report (2: bit-plane enumeration, column
#: search work carried into bounds-only reports, column search time cap;
#: 3: the information-set search settles codes the column search cannot;
#: 4: it replaces enumeration for every exact distance, of any redundancy
#: and of any linear code; 5: distance_report runs whichever engine counts
#: fewer words, and the information-set search proves bounds-only lower
#: bounds; 6: the information-set search walks colex-ordered tables, so its
#: witnesses may differ; 7: so does the column search; 8: the
#: information-set search bounds unmet words over all n windows of a
#: constacyclic code; 9: blocks and runs are half as long, and block
#: boundaries decide which least-weight word the information-set search
#: meets first; 10: the column search runs on every code whose syndromes
#: fit one word per plane, not only where q^r < 2^62, and its work counts
#: the side entries of the levels it ran; 11: the ceiling is upper_bound,
#: not the sphere-packing bound alone, so a report's upper may be lower).
ENGINE_VERSION = 12


def parse_budget(text) -> int:
    """Accept plain integers or 'B^E' strings like '3^16', in 1..2^64.

    A power is range-checked before it is computed, so '3^10000000' fails
    at once instead of building a huge integer."""
    bad = ValueError(f"budget {text} must be an integer in 1..2^64")
    try:
        base, caret, exp = str(text).partition("^")
        b, e = int(base), int(exp) if caret else 1
    except ValueError:
        raise bad from None  # malformed text: never Python's own message
    if e < 0 or (abs(b) > 1 and e > 64):
        raise bad
    value = b ** e
    if not 1 <= value <= 2 ** 64:
        raise bad
    return value


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the distance engines: max_message_enum caps the words the
    information-set search may need (one per scalar class) to its reach,
    and the q^k messages of weight_distribution; max_column_weight caps the
    column search and sets w_cap = min(max_column_weight, U + 1) (_plan),
    the weight to which distance_report proves d > w_cap when no engine can
    settle d; the column search's words to w_cap (_column_words) also
    price how deep the information-set search goes for that proof.  Both
    bound work, not time, so a report depends only on the code and the
    budget."""

    max_message_enum: int = 3 ** 16
    max_column_weight: int = 6

    def __post_init__(self):
        if self.max_message_enum < 1:
            raise ValueError(f"max_message_enum = {self.max_message_enum} "
                             "must be at least 1")
        if self.max_column_weight < 0:
            raise ValueError(f"max_column_weight = {self.max_column_weight} "
                             "must be at least 0")


@dataclass
class DistanceReport:
    """Lower/upper bracket on the minimum distance, exact when they meet."""

    lower: int
    upper: int
    exact: bool
    method: str     # information-set | column-search | bounds-only
    witness: Optional[tuple[int, ...]] = None
    lower_src: str = ""
    upper_src: str = ""
    work: int = 0                     # deterministic step count

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
# digit planes: one bit layout, one add kernel, one zero-count kernel, and
# one kernel that pairs two sets of vectors through both

def _words(L, s):
    """uint64 words per plane of L entries of s digits: 64 // s a word."""
    return -(-L // (64 // s))


@functools.lru_cache(maxsize=None)
def _onehot(p, s):
    """(p, q + 1, s) booleans: digit j of element e is v; element q, the
    padding, has no digit set."""
    digits = np.arange(p ** s)[:, None] // p ** np.arange(s) % p
    return np.pad(digits == np.arange(p)[:, None, None], ((0, 0), (0, 1), (0, 0)))


def _digit_planes(tables, idx):
    """Digit planes of index arrays of shape (..., L), shape (p, W, ...) with
    W = _words(L, s), where s = [GF(q) : GF(p)]: entry i has the s bits
    s*e .. s*e + s - 1 of word i // E (E = 64 // s entries a word,
    e = i % E), and bit s*e + j of planes[v] is set when its base-p digit j
    is v.  Padding bits are zero, bit 63 too when s does not divide 64."""
    p, s, L = tables.field.p, tables.field.m, idx.shape[-1]
    E, W = 64 // s, _words(L, s)
    padded = np.full(idx.shape[:-1] + (W * E,), tables.q)
    padded[..., :L] = idx
    hot = np.zeros((p,) + idx.shape[:-1] + (W, 64), dtype=bool)
    hot[..., :E * s] = _onehot(p, s).take(padded, axis=1).reshape(
        hot.shape[:-1] + (E * s,))
    words = np.packbits(hot, axis=-1, bitorder="little").view("<u8")[..., 0]
    # word axis second; np.moveaxis would cost more than the rest per call
    return np.ascontiguousarray(words.transpose((0, -1) + tuple(range(1, idx.ndim))))


def _multiple_planes(tables, rows):
    """Digit planes (p, W, q*k) of c * row l of the k rows, at index c*k + l
    (c = 0 gives the zero vector): the vectors _colex_entries sums."""
    planes = _digit_planes(tables, tables.mul[:, rows])
    return planes.reshape(planes.shape[:2] + (-1,))


def _plane_add(x, y, ks=None, out=None, tmp=None):
    """Planes ks (default all) of the digit sum of x and y (which broadcast
    after the plane axis): plane k is the OR over i of x_i & y_(k-i mod p).
    out (the result, len(ks) planes) and tmp (one plane) may be passed in
    to reuse buffers; they are allocated otherwise."""
    p = len(x)
    ks = range(p) if ks is None else ks
    z = out if out is not None else np.empty(
        (len(ks),) + np.broadcast(x[0], y[0]).shape, dtype=np.uint64)
    tmp = tmp if tmp is not None else np.empty_like(z[0])
    for z_k, k in zip(z, ks):
        np.bitwise_and(x[0], y[k], out=z_k)
        for i in range(1, p):
            np.bitwise_and(x[i], y[(k - i) % p], out=tmp)
            np.bitwise_or(z_k, tmp, out=z_k)
    return z


def _zero_counts(z, s, tmp):
    """Zero entries of each vector, from plane 0 z (W, ...) of a digit sum: an
    entry is zero when all s of its bits are set, so z ANDs in the next bit
    s - 1 times, each shifted by one (by j would reach the next entry), and
    the first bits are counted, word rows summed in Python (a reduction
    measured slower); one word's counts stay uint8, and a sum is int16 while
    the W * (64 // s) entries the words hold fit.  Overwrites z and tmp."""
    for _ in range(s - 1):
        z &= np.right_shift(z, 1, out=tmp)
    if s > 1:  # the first bit of each entry: bits s*e, e < 64 // s
        z &= np.uint64(((1 << 64 // s * s) - 1) // ((1 << s) - 1))
    counts = np.bitwise_count(z)
    if len(z) == 1:
        return counts[0]
    acc = np.int16 if len(z) * (64 // s) < 1 << 15 else np.int64
    return sum(counts[1:], counts[0].astype(acc))


def _pair_zeros(X, Y, s, cap):
    """Zero counts of the digit sums of entries of Y (p, W, B) with entries
    of X (p, W, L), in runs of about cap pairs: yields (b0, x0, zeros),
    zeros[i, e] counting those of Y[..., b0 + i] + X[..., x0 + e].  A run
    takes max(1, cap // L) entries of Y against all of X, or one entry of Y
    against cap entries of X, so the runs visit the pairs entry of Y first,
    then entry of X.  One z and tmp serve every run: fresh ones at every
    run page-fault whenever the allocator trims its heap, and one (2, ...)
    block puts them a power of two apart, which measured slower."""
    W, L, B = X.shape[1], X.shape[-1], Y.shape[-1]
    rows = max(1, cap // L)
    z_buf, t_buf = (np.empty(W * min(rows, B) * min(cap, L), np.uint64)
                    for _ in "zt")
    for b0 in range(0, B, rows):
        y = Y[..., b0:b0 + rows, None]
        for x0 in range(0, L, cap):
            x = X[..., None, x0:x0 + cap]
            shape = (W, y.shape[-2], x.shape[-1])
            z, tmp = (buf[:prod(shape)].reshape(shape) for buf in (z_buf, t_buf))
            _plane_add(x, y, (0,), z[None], tmp)
            yield b0, x0, _zero_counts(z, s, tmp)


# ---------------------------------------------------------------------------
# colex-ordered tables of row sums, shared by every engine

# plane words (per plane) of the largest colex table a search builds
_TABLE_WORDS = 1 << 19
# plane words (all planes) per run of pairs (of prefixes and top parts, or of
# the inner block and outer sums): 256 KB a buffer.  A block of entries an
# engine streams (_blocks), and a batch of key matches, takes half of that,
# and a table fill's block a quarter of a block, since its gathers and sums
# are live next to the table being filled
_CHUNK = 1 << 15


def _colex_size(l, j, q, pinned=False):
    """Entries of the colex table T_j on rows [0, l): C(l, j) (q - 1)^j, or
    C(l, j) (q - 1)^(j - 1) of its pinned entries (top coefficient 1)."""
    return comb(l, j) * (q - 1) ** (j - 1 if pinned else j)


@functools.lru_cache(maxsize=None)
def _colex_offsets(k, j, q, pinned=False):
    """_colex_size(l, j, q, pinned) for l = 0..k: the rank of the first
    entry with top row l."""
    out = np.array([_colex_size(l, j, q, pinned) for l in range(k + 1)])
    out.flags.writeable = False
    return out


def _colex_entries(colex, planes, q, j, idx, pinned=False):
    """Planes and least rows of the entries idx of T_j, or of the pinned
    j-term sums.  T_j, the j-term sums of the k rows with nonzero
    coefficients, is the concatenation over rows l of the q - 1 blocks
    T_(j-1)[:C(l, j-1)(q-1)^(j-1)] + c * row l (c = 1..q-1), so the sums on
    rows [0, l) are its first C(l, j)(q - 1)^j entries (colex order); the
    pinned sums are the blocks with c = 1.  colex[j] = (T_j, least rows)
    when T_j is built, and entries are read from it; otherwise the top row
    and coefficient are unranked and the bottom entries computed
    recursively.  planes[..., c*k + l] holds the planes of c * row l."""
    if j < len(colex) and not pinned:
        T, least = colex[j]
        return T.take(idx, axis=-1), least[idx]
    k = planes.shape[-1] // q
    start = _colex_offsets(k, j, q, pinned)
    l = np.searchsorted(start, idx, side="right") - 1
    c, b = np.divmod(idx - start[l], _colex_offsets(k, j - 1, q)[l])
    if j < len(colex):  # c = 0: entry (l, 1, b) of T_j
        return _colex_entries(colex, planes, q, j, _colex_offsets(k, j, q)[l] + b)
    x, least = _colex_entries(colex, planes, q, j - 1, b)
    return _plane_add(x, planes.take((c + 1) * k + l, axis=-1)), np.minimum(least, l)


def _colex_unrank(i, j, q, pinned=False):
    """(rows, coefficients) of entry i of T_j, or of the pinned j-term sums,
    ascending by row."""
    rows, coeffs = [], []
    for j in range(j, 0, -1):
        l = j - 1
        while _colex_size(l + 1, j, q, pinned) <= i:
            l += 1
        c, i = divmod(i - _colex_size(l, j, q, pinned), _colex_size(l, j - 1, q))
        rows.insert(0, l)
        coeffs.insert(0, c + 1)
        pinned = False
    return rows, coeffs


def _blocks(a, b, entry_words):
    """Index arrays of consecutive blocks of a..b-1, _CHUNK // 2 //
    entry_words entries each (at least one), the last block shorter."""
    step = max(1, _CHUNK // 2 // entry_words)
    for s in range(a, b, step):
        yield np.arange(s, min(s + step, b))


def _colex_grow(colex, planes, q, j):
    """Build T_0.. up to T_j in colex, in blocks, stopping before the first
    table over _TABLE_WORDS plane words per plane; T_0 is the zero vector
    (0 * row 0), whose least row is k (no row)."""
    p, words, k = planes.shape[0], planes.shape[1], planes.shape[2] // q
    if not colex:
        colex.append((planes[..., :1], np.full(1, k, np.min_scalar_type(k))))
    while len(colex) <= j and _colex_size(k, len(colex), q) * words <= _TABLE_WORDS:
        size = _colex_size(k, len(colex), q)
        T = np.empty((p, words, size), dtype=np.uint64)
        least = np.empty(size, dtype=colex[0][1].dtype)
        for idx in _blocks(0, size, 4 * p * words):
            T[..., idx], least[idx] = _colex_entries(
                colex, planes, q, len(colex), idx)
        colex.append((T, least))


def _span_planes(tables, rows):
    """Digit planes (p, W, q^k) of all q^k combinations of the k rows: their
    colex tables T_0..T_k side by side."""
    q, k, planes, colex = tables.q, len(rows), _multiple_planes(tables, rows), []
    _colex_grow(colex, planes, q, k)
    return np.concatenate([_colex_entries(colex, planes, q, j, np.arange(
        _colex_size(k, j, q)))[0] for j in range(k + 1)], axis=-1)


# ---------------------------------------------------------------------------
# meet-in-the-middle low-weight search over one-hot syndrome planes

# odd 64-bit multiplier; plane v of a syndrome enters its hash times _GOLDEN^v
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(planes):
    """64-bit hash of each syndrome: the sum of plane v times _GOLDEN^v over
    the nonzero digit values v (plane 0 is implied), wrapping."""
    mult = np.array([pow(_GOLDEN, v, 1 << 64) for v in range(1, len(planes))],
                    dtype=np.uint64)
    return mult @ planes[1:]


def _first_pair(left, lk, low, need, limit, r_pos, lo, hi):
    """(left rank, right block position) of the first key match whose left
    entry lies below the right entry's least row (left rank < limit, per
    right position) and is a genuine syndrome match, in right-then-left
    entry order, among right block positions r_pos (ascending) and their
    runs lo..hi of the sorted left keys; None if there is none.  The index
    test is the cheap filter; the plane comparison, with the left planes
    of ranks from left, decides every pair that passes it."""
    counts = hi - lo
    pos = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    r_pos = np.repeat(r_pos, counts)
    l_idx = (lk[pos] & low).astype(np.int64)
    cand = np.flatnonzero(l_idx < limit[r_pos])
    x, _ = left(l_idx[cand])
    same = (x[:, 0] == need[:, r_pos[cand]]).all(axis=0)
    if not same.any():
        return None
    first = cand[np.argmax(same)]  # pairs already run in right-then-left order
    return int(l_idx[first]), int(r_pos[first])


def _level_search(tables, colex, cplanes, w, n):
    """Search for a weight-exactly-w dependence among the n columns.

    Splits the support as (first t, last u = w-t) of the sorted support: the
    left side is T_t, the colex table of the t-term sums of the columns, and
    the right side the pinned u-term sums (top coefficient 1, one
    representative per scalar multiple), both taken in blocks from the
    tables in colex (_colex_entries).  A left key is the syndrome's 64-bit
    hash (_mix) with its low bits replaced by the entry's colex rank, so one
    sort orders the left side by hash and then by rank, as a stable sort
    would.  The negated right syndromes (planes permuted v -> -v) are
    hashed the same way, sorted with their block positions, and probed with
    one searchsorted on the hash bits plus an equality test.  A key match
    counts only when the left support lies below the right one's least row
    u1, which in colex order is the index test left rank < C(u1, t)(q-1)^t,
    and the left planes, recomputed by rank, equal the negated right
    syndrome's, compared plane by plane, so a hash collision never yields a
    word; matches are checked in right entry order, in batches of about
    _CHUNK // 2 pairs (_first_pair).  A counted match is a codeword, unranked
    from both ranks (_colex_unrank); the first in right-then-left entry
    order is returned.
    """
    q, p = tables.q, len(cplanes)
    t, u = w // 2, w - w // 2
    size, right = _colex_size(n, t, q), _colex_size(n, u, q, pinned=True)
    _colex_grow(colex, cplanes, q, t)
    left = functools.partial(_colex_entries, colex, cplanes, q, t)
    low = np.uint64((1 << max(size, _CHUNK).bit_length()) - 1)
    high = ~low
    lk = np.empty(size, dtype=np.uint64)
    for idx in _blocks(0, size, p):
        x, _ = left(idx)
        lk[idx] = _mix(x[:, 0]) & high | idx.astype(np.uint64)
    lk.sort()
    limits = _colex_offsets(n, t, q)     # T_t below each least row
    neg = [(-v) % p for v in range(p)]
    for idx in _blocks(0, right, p):
        y, least = _colex_entries(colex, cplanes, q, u, idx, pinned=True)
        need = y[neg, 0]
        rk = np.sort(_mix(need) & high | np.arange(len(idx), dtype=np.uint64))
        lo = np.searchsorted(lk, rk & high)
        hit = lk[np.minimum(lo, len(lk) - 1)] & high == rk & high
        if not hit.any():
            continue
        rk, lo = rk[hit], lo[hit]
        hi = np.searchsorted(lk, rk | low, side="right")
        # from key order to right entry order: the block positions rk & low
        # are distinct, so one scatter sorts them
        slot = np.full(len(idx), -1)
        slot[rk & low] = np.arange(len(rk))
        order = slot[slot >= 0]
        rk, lo, hi = rk[order], lo[order], hi[order]
        ends = np.cumsum(hi - lo)
        a = 0
        while a < len(rk):
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - (hi[a] - lo[a])
                                               + _CHUNK // 2, side="right")))
            pair = _first_pair(left, lk, low, need, limits[least],
                               (rk[a:b] & low).astype(np.int64), lo[a:b], hi[a:b])
            if pair is not None:
                word = np.zeros(n, dtype=tables.dtype)
                for rank, j, pinned in ((pair[0], t, False),
                                        (int(idx[pair[1]]), u, True)):
                    rows, coeffs = _colex_unrank(rank, j, q, pinned)
                    word[rows] = coeffs
                return word
            a = b
    return None


def low_weight_search(code, w_max: Optional[int] = None,
                      budget: Optional[SearchBudget] = None) -> DistanceReport:
    """Find the minimum weight w <= w_max via parity-check column dependence.

    The colex tables of column sums (_colex_grow, up to _TABLE_WORDS words
    per plane) are built once and shared by every level (_level_search).
    Returns an exact report with a witness when a word is found, otherwise the
    lower bound w_max + 1.  `work` counts the side entries of the levels it
    ran (_column_words), the count distance_report's plan prices it by.
    Raises CodeError when a syndrome takes more than one word per plane
    (r > 64 // s).
    """
    budget = budget or SearchBudget()
    if w_max is None:
        w_max = budget.max_column_weight
    tables = code.field.tables()
    q = tables.q
    H = np.asarray(code.dual_rows(), dtype=tables.dtype)
    r, n = H.shape if H.size else (0, code.n)
    if r == 0:
        # full space: any unit vector
        word = tuple(1 if i == 0 else 0 for i in range(code.n))
        return DistanceReport(1, 1, True, "column-search", word,
                              "search", "search", 1)
    if _words(r, tables.field.m) > 1:
        raise CodeError(f"syndrome space too large: {r} check digits over "
                        f"GF({q}) take more than one word per plane")
    cplanes, colex = _multiple_planes(tables, H.T), []
    for w in range(1, w_max + 1):
        word = _level_search(tables, colex, cplanes, w, n)
        if word is not None:
            if not code.contains(word):  # pragma: no cover
                raise AssertionError("column search produced a non-codeword")
            return DistanceReport(
                lower=w, upper=w, exact=True, method="column-search",
                witness=tuple(int(v) for v in word),
                lower_src="column-search", upper_src="column-search",
                work=_column_words(n, q, w))
    return DistanceReport(
        lower=w_max + 1, upper=code.n, exact=False, method="column-search",
        witness=None, lower_src=f"column-search w<={w_max}",
        upper_src="trivial", work=_column_words(n, q, w_max))


# ---------------------------------------------------------------------------
# Brouwer-Zimmermann information-set search over colex-ordered tables

def _window_bound(n, k, w):
    """L(w): the least weight of a codeword with more than w nonzero entries
    in every window [jk, (j+1)k) mod n.  Window j holds r_j = min(k, n - jk)
    positions that no earlier window holds, so at least w + 1 - (k - r_j)
    of its nonzero entries are new.  One window (n = k) gives L(w) = w + 1."""
    return sum(max(0, w + 1 - (k - min(k, n - j * k)))
               for j in range(-(-n // k)))


def _info_set_bound(n, k, w):
    """The least weight of a codeword with more than w nonzero entries in
    each of the n windows [j, j + k) mod n: ceil(n(w + 1)/k), since the
    windows hold at least n(w + 1) nonzero entries in all and each position
    lies in k of them (an evenly spaced support meets the bound).  The
    disjoint windows [jk, (j+1)k) are among them, so it is never below
    their L(w) (_window_bound); one window (n = k) gives w + 1."""
    return -(-n * (w + 1) // k)


def _info_set_span(code):
    """The positions the windows cover: all n for a constacyclic code, the k
    pivots (one window, bound w + 1) for any other."""
    return code.n if isinstance(code, ConstacyclicCode) else code.k


def _info_set_levels(n, k, d_max):
    """The last level the search with reach d_max enumerates: the first w
    with L(w) > d_max, and at most k.  The disjoint windows' L sets the
    levels, so the finer _info_set_bound raises what a level proves but
    never moves the level."""
    w = 0
    while w < k and _window_bound(n, k, w) <= d_max:
        w += 1
    return w


def _level_words(k, q, W):
    """Words, one per scalar class, that levels 1..W enumerate:
    C(k, w) (q - 1)^(w - 1) at level w, so at most (q^k - 1)/(q - 1)."""
    return sum(comb(k, w) * (q - 1) ** (w - 1) for w in range(1, W + 1))


def _info_set_words(n, k, q, d_max):
    """Words that the levels up to _info_set_levels enumerate."""
    return _level_words(k, q, _info_set_levels(n, k, d_max))


def _deep_reach(n, k, q, d_max, limit):
    """The reach L(W) - 1, whose first level past it is W (L rises with w,
    _window_bound), for the deepest W whose words (_level_words) fit
    limit; d_max when its own level is at least as deep."""
    W = _info_set_levels(n, k, d_max)
    while W < k and _level_words(k, q, W + 1) <= limit:
        W += 1
    return max(d_max, _window_bound(n, k, W) - 1)


def information_set_search(code, budget: Optional[SearchBudget] = None,
                           d_max: Optional[int] = None
                           ) -> Optional[DistanceReport]:
    """Minimum distance of a linear code by the Brouwer-Zimmermann
    information-set method (Zimmermann 1996, as in Grassl 2006), exact, or
    a lower bound above the reach d_max.

    G is put in reduced row-echelon form (codes.rref): its pivot columns are
    an information set and the other r = n - k columns the redundancy.
    Level w enumerates the messages of weight w, one per scalar class, as
    sums of the redundancy parts of the k rows (_multiple_planes).  The
    sums of t rows are held in one colex table T_t (_colex_grow), where t
    is w - 1, or less when T_(w-1) would exceed _TABLE_WORDS plane words.
    No level after the last planned one, W, reads T_(W-1), so W builds it
    only when it holds no more vectors than the two-term top parts on
    T_(W-2); from W = 3 on they are fewer, and W pairs them with T_(W-2),
    enumerating the same words.  A
    message is a (w - t)-term top part y, whose top coefficient is pinned
    to 1 (one per scalar class) and whose least row u bounds the others:
    its t-term bottom parts are the prefix T_t[:C(u, t)(q - 1)^t].  Since
    y is one vector, plane 0 of x + y is OR_v x_v & y_(-v) (_plane_add)
    for every x of the prefix, so no operand is gathered; the top parts are
    the pinned (w - t)-term sums (_colex_entries), in blocks of about
    _CHUNK // 2 plane words, each sorted by least row and cut into groups
    of one prefix length; each group is paired with its own prefix, top
    part first and then entry, in runs of about _CHUNK plane words
    (_pair_zeros), and a group whose prefix is empty is skipped.  A word's
    weight is w plus its redundancy part's r entries less their zeros
    (_zero_counts); the full space, with no redundancy, has one zero column.

    A word not yet met after level w has more than w nonzero entries on each
    window, so its weight is at least the bound at w (_info_set_bound).  For
    a constacyclic code the pivots are window 0 = [0, k), any k cyclically
    consecutive positions are an information set (MacWilliams & Sloane
    1977, ch. 7), and the constashift is a weight-preserving automorphism
    that maps window [j, j + k) to [j + 1, j + k + 1) mod n, so the words
    met stand for those of all n windows: an unmet word weighs at least
    ceil(n(w + 1)/k), never less than the disjoint windows' L(w)
    (_window_bound).  Any other code has the one window of its pivots, and
    the bound is w + 1.  The search ends exact once the bound reaches the
    least weight found, or after level k, when every message has been met;
    the least word's bottom and top parts are unranked to a message
    (_colex_unrank), and its word is re-checked with code.contains.
    Otherwise it stops at the level W of _info_set_levels, the first with
    L(W) > d_max, and returns the inexact report lower = the bound at W,
    lower_src "information-set w<=W", with no witness (a word found on the
    way is not reported).  W stays the disjoint windows' level, which
    admission counts: the finer bound passes d_max up to a level earlier,
    where it proves less than it does at W, and the reach L(W) - 1 stops
    at W (distance_report's plan sets one, _deep_reach).  The reach is at
    most upper_bound(n, k, q), which always ends exact since d <= U, and is
    that bound when d_max is None.

    Returns None when the code is not admitted: the words up to level W
    (_info_set_words) must fit budget.max_message_enum, and every code whose
    q^k fits is admitted.  `work` counts the words enumerated, the prefix
    lengths summed over the top parts: C(k, w)(q - 1)^(w - 1) at level w.
    Raises CodeError for the zero code and for linearly dependent generator
    rows.
    """
    budget = budget or SearchBudget()
    q, k, n = code.field.order, code.k, code.n
    if k == 0:
        raise CodeError("the zero code has no nonzero codeword")
    span = _info_set_span(code)
    upper = upper_bound(n, k, q)[0]
    reach = upper if d_max is None else min(d_max, upper)
    if _info_set_words(span, k, q, reach) > budget.max_message_enum:
        return None
    tables = code.field.tables()
    G, pivots = rref(tables, code.rows())
    if len(pivots) < k:
        raise CodeError(f"the {k} generator rows are linearly dependent")
    if isinstance(code, ConstacyclicCode) and pivots != list(range(k)):
        raise AssertionError(  # pragma: no cover
            "window 0 is not an information set")
    red = np.delete(np.arange(n), pivots)
    # the full space has no redundancy: one zero column, always counted zero
    R = G[:, red] if len(red) else np.zeros((k, 1), dtype=tables.dtype)
    cplanes = _multiple_planes(tables, R)
    p, words, s = len(cplanes), cplanes.shape[1], tables.field.m
    colex = []                               # (T_j, least rows), j <= t
    cap = max(1, _CHUNK // words)            # pairs per run
    best_w, best, work, w = n + 1, None, 0, 0
    last = _info_set_levels(span, k, reach)
    while w < last and _info_set_bound(span, k, w) < best_w:
        w += 1
        # no later level reads the last level's T_(w-1): it is built only
        # when it holds no more vectors than the two-term top parts on
        # T_(w-2) (from w = 3 on, it holds more)
        if w < last or w == 1 or _colex_size(k, w - 1, q) <= (
                _colex_size(k, 2, q, True) - _colex_size(w - 1, 2, q, True)):
            _colex_grow(colex, cplanes, q, w - 1)
        t = len(colex) - 1
        m, T = w - t, colex[t][0]
        # top parts: the pinned m-term sums whose top row is at least w - 1
        for ids in _blocks(*_colex_offsets(k, m, q, True)[[w - 1, k]], p * words):
            y, u = _colex_entries(colex, cplanes, q, m, ids, pinned=True)
            order = np.argsort(u, kind="stable")
            y, ids = y.take(order, axis=-1), ids[order]
            P = _colex_offsets(k, t, q)[u[order]]     # T_t below each least row
            work += int(P.sum())
            cuts = (np.flatnonzero(np.diff(P)) + 1).tolist()
            for g0, g1 in zip([0] + cuts, cuts + [len(P)]):
                if P[g0] == 0:
                    continue
                for b0, x0, zeros in _pair_zeros(T[..., :P[g0]], y[..., g0:g1],
                                                 s, cap):
                    bi, e = divmod(int(np.argmax(zeros)), zeros.shape[1])
                    if w + R.shape[1] - int(zeros[bi, e]) < best_w:
                        best_w = w + R.shape[1] - int(zeros[bi, e])
                        best = (t, x0 + e, m, int(ids[g0 + b0 + bi]))
    lower = _info_set_bound(span, k, w)
    if w < k and lower < best_w:  # stopped at the reach: a lower bound only
        return DistanceReport(
            lower=lower, upper=n, exact=False, method="information-set",
            witness=None, lower_src=f"information-set w<={w}",
            upper_src="trivial", work=work)
    t, e, m, top = best
    message = np.zeros(k, dtype=np.int64)
    for rows, coeffs in (_colex_unrank(e, t, q), _colex_unrank(top, m, q, True)):
        message[rows] = coeffs
    word = encode_rows(tables, G, message)
    if np.count_nonzero(word) != best_w or not code.contains(word):
        raise AssertionError(  # pragma: no cover
            "information-set search produced a wrong witness")
    return DistanceReport(
        lower=best_w, upper=best_w, exact=True, method="information-set",
        witness=tuple(int(v) for v in word), lower_src="information-set",
        upper_src="information-set", work=work)


# ---------------------------------------------------------------------------
# weight distributions: an inner block against the pinned outer sums

def weight_distribution(code, budget: Optional[SearchBudget] = None
                        ) -> Optional[dict[int, int]]:
    """Counts A_w of codewords of each weight w, by the blocked enumeration
    of all q^k messages; None when q^k exceeds budget.max_message_enum.

    The inner block A is the span of the first k_in rows, their colex tables
    T_0..T_k_in side by side (_span_planes): k_in is ceil(k/2), or less
    while A's q^k_in words exceed one run of about _CHUNK plane words, and
    at least 1.  A codeword is a + c, a in A and c a combination of the
    other K = k - k_in rows.  Weights are invariant under scalar multiples,
    so besides c = 0 (A alone) the walk takes one c per scalar class: the
    pinned j-term sums of the outer rows, j = 1..K, (q^K - 1)/(q - 1) in
    all, each counted q - 1 times.  They are taken in blocks from their
    colex tables (_colex_entries), and each block is paired with the whole
    of A in runs of about _CHUNK plane words (_pair_zeros): the zero counts
    of the digit sums give the run's weights.  No message is encoded on its
    own.
    """
    budget = budget or SearchBudget()
    tables = code.field.tables()
    q, k, n, s = tables.q, code.k, code.n, tables.field.m
    if k == 0:
        return {0: 1}
    if q ** k > budget.max_message_enum:
        return None
    rows = np.asarray(code.rows(), dtype=tables.dtype)
    p, words = tables.field.p, _words(n, s)
    cap = max(1, _CHUNK // words)            # pairs per run
    k_in = 1
    while k_in < -(-k // 2) and q ** (k_in + 1) <= cap:
        k_in += 1
    A, K = _span_planes(tables, rows[:k_in]), k - k_in
    oplanes, outer = _multiple_planes(tables, rows[k_in:]), []
    _colex_grow(outer, oplanes, q, K - 1)
    zeros = _zero_counts(A[0].copy(), s, np.empty_like(A[0]))     # c = 0
    hist = np.bincount(zeros, minlength=n + 1)
    for j in range(1, K + 1):
        for ids in _blocks(0, _colex_size(K, j, q, pinned=True), p * words):
            y, _ = _colex_entries(outer, oplanes, q, j, ids, pinned=True)
            for _, _, zeros in _pair_zeros(A, y, s, cap):
                hist += (q - 1) * np.bincount(zeros.ravel(), minlength=n + 1)
    return {w: int(c) for w, c in enumerate(hist[::-1]) if c}


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
    vol = vol_even = 0
    # the volumes' next terms C(n, t)(q - 1)^t and C(n - 1, t)(q - 1)^t,
    # each carried to t + 1 by one multiply and one exact division
    term = term_even = 1
    for d in range(1, n + 1):
        t = (d - 1) // 2
        if d % 2 == 1:
            vol += term
            term = term * (n - t) * (q - 1) // (t + 1)
        if vol > cap:
            break
        if d % 2 == 0:
            # sum over i <= t of C(n - 1, i)(q - 1)^i, one term per even d
            vol_even += term_even
            term_even = term_even * (n - 1 - t) * (q - 1) // (t + 1)
            if vol_even > cap_even:
                continue
        best = d
    return best


def _griesmer_max_d(n: int, k: int, q: int) -> int:
    """Largest d with sum over i < k of ceil(d / q^i) <= n (Griesmer 1960),
    stepping down from the Singleton bound n - k + 1 (the sum is at least
    d + k - 1).  A term with q^i >= d is 1, so the sum is taken over the t
    terms with q^i < d, plus k - t, and no q^i past d is formed."""
    def length(d):
        total, qi, t = 0, 1, 0
        while t < k and qi < d:
            total += -(-d // qi)
            qi *= q
            t += 1
        return total + k - t
    d = n - k + 1
    while length(d) > n:
        d -= 1
    return d


def _classic_bound(n: int, k: int, q: int) -> tuple[int, str]:
    """(d, src): the least of the Singleton, Griesmer and sphere-packing
    bounds, the first of them in that order on a tie."""
    return min((n - k + 1, "singleton"), (_griesmer_max_d(n, k, q), "griesmer"),
               (sphere_packing_max_d(n, k, q), "sphere-packing"),
               key=lambda b: b[0])


_UPPER: dict = {}


def upper_bound(n: int, k: int, q: int) -> tuple[int, str]:
    """(U, src): an upper bound on the minimum distance of every linear
    [n, k]_q code, and the bound that binds (memoised per process).

    U starts at the least of the Singleton, Griesmer and sphere-packing
    bounds (_classic_bound).  A code of minimum distance U has a residual
    [n - U, k - 1, >= ceil(U/q)] code (Huffman & Pless, Fundamentals of
    Error-Correcting Codes, 2003, section 2.7), so while k >= 2 and those
    three bounds for [n - U, k - 1]_q fall below ceil(U/q), U drops by one
    and src becomes "residual".  The true d passes that test, so U >= d."""
    key = (n, k, q)
    if key not in _UPPER:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        d, src = _classic_bound(n, k, q)
        while k >= 2 and _classic_bound(n - d, k - 1, q)[0] < -(-d // q):
            d, src = d - 1, "residual"
        _UPPER[key] = d, src
    return _UPPER[key]


def bch_lower(code) -> tuple[int, int]:
    """(bound, multiplier) from the exhaustive BCH multiplier search."""
    if isinstance(code, NegacyclicCode):
        v, b = code.best_bch_multiplier()
        return b, v
    return 1, 1


# ---------------------------------------------------------------------------
# dispatch

def _column_words(n, q, w_cap):
    """Side entries the column search builds up to level w_cap: at level w,
    C(n, t) (q - 1)^t on the left and C(n, u) (q - 1)^(u - 1) on the
    pinned right, for t = floor(w/2) and u = w - t."""
    return sum(comb(n, w // 2) * (q - 1) ** (w // 2)
               + comb(n, w - w // 2) * (q - 1) ** (w - w // 2 - 1)
               for w in range(1, w_cap + 1))


def _plan(code, budget: SearchBudget):
    """(engine, bch, report): the engine distance_report runs, a call with
    no arguments (None for none), the BCH bound, and the bounds-only report
    that results when the engine does not settle d, its work left 0.  Every
    field of the report follows from n, k, q, the budget and the best BCH
    multiplier, so the result cache's certificate replays it.

    The ceiling is U = upper_bound(n, k, q), the least of the Singleton,
    Griesmer and sphere-packing bounds lowered by the residual step.  The
    column search to w_cap = min(max_column_weight, U + 1) is a
    candidate when a syndrome fits one word per plane (r <= 64 // s); the
    information-set search when its words up to its reach
    (_info_set_words) fit budget.max_message_enum.  Of the two, the one
    that counts fewer words runs (_column_words against _info_set_words),
    a tie going to the column search.  First the engines that settle d:
    the column search when w_cap reaches U, and the information-set search
    with reach U; whichever runs settles d, since d <= U.  When
    neither can, the engines that prove d > w_cap: the column search
    (skipped when w_cap < the BCH bound, where it can neither find a word
    nor raise the bound), proving w_cap + 1, and the information-set search
    with reach w_cap, which the choice prices at its words to the first
    level whose disjoint windows give L > w_cap.  Once chosen, it goes on
    to the deepest level W whose words fit both budget.max_message_enum and
    the column search's price for the same proof, _column_words(n, q,
    w_cap) (_deep_reach; never short of that first level, so a proof the
    column search cannot make may cost more than its price).  It proves
    d >= the bound of all the windows at W (_info_set_bound), or settles
    d, as it always does when W = k or when that bound passes U, and
    whenever that bound meets the least weight it found.  The report
    carries U, upper_src naming the bound that binds, and the larger of the
    BCH bound and what the engine proves (the BCH bound on a tie); it is
    exact when the two meet."""
    q, k, n = code.field.order, code.k, code.n
    upper, upper_src = upper_bound(n, k, q)
    bch, v = bch_lower(code)
    w_cap = min(budget.max_column_weight, upper + 1)
    fits = _words(n - k, code.field.m) <= 1
    span = _info_set_span(code)
    price = _column_words(n, q, w_cap)
    run, lower, lower_src = None, bch, f"bch(v={v})"
    for column, reach in ((w_cap >= upper, upper), (bch <= w_cap, w_cap)):
        words = _info_set_words(span, k, q, reach)
        admitted = words <= budget.max_message_enum
        if fits and column and not (admitted and words < price):
            run = functools.partial(low_weight_search, code, w_cap, budget)
            proved = w_cap + 1, f"column-search w<={w_cap}"
        elif admitted:
            if reach < upper:  # a proof of d > w_cap, at the column search's price
                reach = _deep_reach(span, k, q, reach,
                                    min(budget.max_message_enum, price))
            run = functools.partial(information_set_search, code, budget, reach)
            W = _info_set_levels(span, k, reach)
            # past level k every message is met, so the search settles d
            proved = (_info_set_bound(span, k, W) if W < k else upper + 1,
                      f"information-set w<={W}")
        else:
            continue
        if bch < proved[0] <= upper:
            lower, lower_src = proved
        break
    return run, bch, DistanceReport(
        lower=lower, upper=upper, exact=(lower == upper), method="bounds-only",
        witness=None, lower_src=lower_src, upper_src=upper_src)


def distance_report(code, budget: Optional[SearchBudget] = None
                    ) -> DistanceReport:
    """The minimum distance, exact or bracketed, from at most one engine,
    the one _plan picks: its exact report when it settles d, else the
    plan's bounds-only report, which carries the engine's work."""
    budget = budget or SearchBudget()
    if code.k == 0:
        raise CodeError("the zero code has no distance report")
    run, bch, plan = _plan(code, budget)
    if run is None:
        return plan
    rep = run()
    if rep.exact:
        if not (bch <= rep.lower <= plan.upper):  # pragma: no cover
            raise AssertionError(
                f"bounds violated: bch={bch} d={rep.lower} upper={plan.upper}")
        return rep
    # the engine proves the plan's bound, or at most the BCH bound it keeps
    if (rep.lower, rep.lower_src) != (plan.lower, plan.lower_src) and not (
            rep.lower <= bch == plan.lower):  # pragma: no cover
        raise AssertionError(f"{rep.lower_src} proved {rep.lower}, but the "
                             f"plan says {plan.lower_src} proves {plan.lower}")
    return dataclasses.replace(plan, work=rep.work)
