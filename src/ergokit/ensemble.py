"""Exact per-copy passive energies for n independent battery copies.

The n-fold product state and the sum Hamiltonian depend on a
configuration |i_1 ... i_n> only through its composition (k_1, ..., k_d),
the count of each level. One table row per composition, carrying a
log-probability, a total energy and a log-multinomial multiplicity,
replaces the d^n levels with C(n+d-1, d-1) rows. Probabilities and
multiplicities stay in the log domain, and so do the merge's count
ladders (_log_ladder): accumulated in logs under 256 rows, one linear
block up to 8,192, and longer ones in linear blocks joined in logs.

Compositions are cached one entry per d (_CompositionCache). They are
lexicographic with k_1 varying slowest, which gives the nesting rule:
those of m < n are the last rows(m) columns of those of n, with k_1
lowered by n - m. The enumeration builds j parts from j - 1 by it, and
every table reads its counts from the entry of d by it. The one limit
on a table is TABLE_BYTE_BUDGET: a table whose estimated peak,
TABLE_BYTES_PER_ROW per row (an uncached build plus its six-row merge
peaks at 95.7-99.9 bytes per row), exceeds it is refused before
anything is allocated.

curve evaluates n from its largest feasible n down to 1 in one
_Workspace of six rows, the first three the table's until the merge
takes each over, with the same operations, in the same order, as with
temporaries; the merge writes its energy integral F over F's own counts.
Each merge hands its two sort orders down to the next, smaller table:
the indices of the shared columns, shifted down, are that table's order
whenever the keys they gather ascend with ties in index order, which is
checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .battery import TRACE_TOL, BatterySpec, QuantumState, energy
from .errors import (CapExceededError, NoConvergenceError, NotDiagonalError,
                     ValidationError)
from .gibbs import entropy_target, match_entropy

# estimated peak bytes of one uncached build plus its merge, per table
# row, in six workspace rows; tracemalloc reads 99.9, 97.8 and 95.7 at
# (d, n) = (8, 14), (6, 24) and (3, 1024), and a whole curve with its
# compositions cached 73.9, 79.1 and 82.5; 112 keeps an 11 % margin over
# the highest
TABLE_BYTES_PER_ROW = 112
# build_level_table refuses a table whose estimated peak exceeds this
TABLE_BYTE_BUDGET = 2 * 2**30
# the composition cache evicts its least recently used entries beyond this
COMPOSITION_CACHE_BYTES = 64 * 2**20
BRUTE_FORCE_CAP = 10_000_000
DIAGONAL_TOL = 1e-10
# complete_passivity_check: per-copy work above this times n is active
ACTIVE_WORK_TOL = 1e-9
# _log_ladder's regimes, by rows: under LADDER_LOG_ROWS one logaddexp
# accumulate, cheaper than a linear block below about 250 rows (the
# measured crossover); up to LADDER_ONE_BLOCK one linear block, whose
# rounding there stays within 1.6x of the blocks' (it is 10x theirs at
# 118,755 rows); longer ladders in blocks of LADDER_BLOCK rows
LADDER_LOG_ROWS = 256
LADDER_ONE_BLOCK = 8192
LADDER_BLOCK = 2048
# a linear block spans at most this in ln count, so each exp(x - block
# max) >= e^-690 stays a normal float (those end near e^-708)
LADDER_LINEAR_SPAN = 690.0
# passive_energy_per_copy's stage after its ladders runs over chunks of
# this many rows
MERGE_CHUNK = 8192
_EPS = float(np.finfo(float).eps)


def composition_count(n: int, d: int) -> int:
    return math.comb(n + d - 1, d - 1)


def _cap_error(required: int, cap: int, what: str,
               note: str = "") -> CapExceededError | None:
    return (CapExceededError(f"{required} {what} {cap}{note}", required=required,
                             cap=cap) if required > cap else None)


def _table_error(n: int, d: int) -> CapExceededError | None:
    """Why the (n, d) level table is refused, or None: at
    TABLE_BYTES_PER_ROW bytes per row it exceeds TABLE_BYTE_BUDGET."""
    rows = composition_count(n, d)
    return _cap_error(rows * TABLE_BYTES_PER_ROW, TABLE_BYTE_BUDGET,
                      "estimated bytes exceed the table byte budget",
                      f" ({rows} rows at {TABLE_BYTES_PER_ROW} bytes each)")


def _composition_matrix(n: int, d: int) -> np.ndarray:
    """All compositions of n into d parts, read-only: column i of the
    (d, rows) counts, of np.min_scalar_type(n), is composition i,
    lexicographic in (k_1, ..., k_d). Those into j parts are made from
    those into j - 1 with one concatenation, so the numpy calls grow as
    d * n."""
    dtype = np.min_scalar_type(n)
    counts = np.full((1, 1), n, dtype=dtype)
    for j in range(2, d + 1):
        # k_1 = 0..n, each followed by the (j-1)-part compositions of
        # n - k_1: by the nesting rule, the last sizes[k_1] columns of
        # counts with their first row lowered by k_1
        sizes = [composition_count(n - k, j - 1) for k in range(n + 1)]
        K = np.empty((j, sum(sizes)), dtype=dtype)
        K[0] = np.repeat(np.arange(n + 1, dtype=dtype), sizes)
        np.concatenate([counts[:, -s:] for s in sizes], axis=1, out=K[1:])
        K[1] -= K[0]
        counts = K
    counts.flags.writeable = False
    return counts


class _CompositionCache:
    """One entry per d, least recently used first: the counts of the
    largest n' enumerated for d (_composition_matrix) and ln k! for
    k = 0..n', both read-only. get(n, d) hits whenever n' >= n;
    build_level_table reads the table of n from it by the nesting rule.

    Holds at most COMPOSITION_CACHE_BYTES; an entry larger than that is
    returned but not kept, and the smaller entry held for d stays."""

    def __init__(self):
        self.entries: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.nbytes = 0
        self.misses = 0

    def get(self, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        held = self.entries.pop(d, None)
        if held is not None:
            self.entries[d] = held
            if held[1].size > n:
                return held
        self.misses += 1
        log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        log_fact.flags.writeable = False
        entry = _composition_matrix(n, d), log_fact
        size = sum(a.nbytes for a in entry)
        if size <= COMPOSITION_CACHE_BYTES:
            # replaces held, the newest entry, so the oldest go first
            self.entries[d] = entry
            self.nbytes += size - sum(a.nbytes for a in held or ())
            while self.nbytes > COMPOSITION_CACHE_BYTES:
                oldest = self.entries.pop(next(iter(self.entries)))
                self.nbytes -= sum(a.nbytes for a in oldest)
        return entry


_compositions = _CompositionCache()


@dataclass(frozen=True, eq=False)
class WeightedLevelTable:
    """Multiplicity-compressed spectrum of the n-copy product.

    Per composition: log_prob = sum_j k_j ln r_j (-inf when a zero
    eigenvalue is used), energy = sum_j k_j eps_j (total, not per copy),
    log_mult = ln(n! / prod_j k_j!).
    """

    n: int
    dim: int
    log_prob: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    log_mult: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.log_prob.size


class _Workspace:
    """Row buffers for build_level_table and passive_energy_per_copy, and
    what curve carries from n to n - 1: levels (_level_weights), top (the
    composition entry of an n at least its largest) and orders, the last
    merge's two sort orders as int32, empty before the first merge.

    floats holds the merge's six rows of at least rows + 1 entries; the
    build sums the table into the first three, which the merge takes over
    once each is dead, and one level's terms into the next three. The
    merge writes its energy integral F over F's own counts in the last
    row. chunk holds five rows for the merge's chunks, flags one bool
    row."""

    def __init__(self, rows: int):
        # whole 64-byte lines per row, so every row starts aligned alike
        width = (rows + 8) // 8 * 8
        self.floats = np.empty((6, width))
        self.flags = np.empty(width, dtype=bool)
        self.merge = list(self.floats)
        self.chunk = list(np.empty((5, min(width, MERGE_CHUNK + 8))))
        self.levels = self.top = None
        self.orders = [np.empty(0, dtype=np.int32)] * 2

    def hand_down(self, rows: int) -> None:
        """Cut the orders to the next, nested table of rows rows: its
        columns are this one's last, so keep those indices, shifted down."""
        for side, kept in enumerate(self.orders):
            shift = kept.size - rows
            order = kept[np.greater_equal(kept, shift, out=self.flags[:kept.size])]
            order -= shift
            self.orders[side] = order


def _validated_spectrum(spectrum, d: int) -> np.ndarray:
    r = np.asarray(spectrum, dtype=float)
    if r.ndim != 1 or r.size != d:
        raise ValidationError(
            f"spectrum must be a length-{d} vector, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValidationError(f"spectrum entries must be finite, got {r.tolist()!r}")
    if r.min() < 0.0:
        raise ValidationError(f"spectrum entries must be >= 0, got min {r.min()!r}")
    s = float(r.sum())
    if abs(s - 1.0) > TRACE_TOL:
        raise ValidationError(f"spectrum must sum to 1 within {TRACE_TOL}, got {s!r}")
    return r


def _level_weights(spectrum, battery: BatterySpec) -> tuple[np.ndarray, list[int]]:
    """The validated spectrum's weights[j] = (ln r_j, eps_j) as a column,
    ln 0 taken as 0, and the levels j with r_j = 0."""
    r_levels = _validated_spectrum(spectrum, battery.dim).tolist()
    weights = np.empty((battery.dim, 2, 1))
    weights[:, 0, 0] = [math.log(x) if x > 0.0 else 0.0 for x in r_levels]
    weights[:, 1, 0] = battery.energies
    return weights, [j for j, x in enumerate(r_levels) if x == 0.0]


def build_level_table(spectrum, battery: BatterySpec, n: int, *,
                      _workspace: _Workspace | None = None) -> WeightedLevelTable:
    """One entry per composition of n into d parts.

    Each row of log_prob and energy is k_1 x_1 + ... + k_d x_d, summed one
    part at a time, left to right, in float64 with x_j = math.log(r_j) or
    eps_j: bit for bit the scalar sum, with no BLAS call, so the bits do
    not depend on the CPU's kernels. A zero eigenvalue contributes 0 and
    turns every row that uses it to -inf. log_mult = ln n! - (ln k_1! +
    ... + ln k_d!) is summed in the same loop. Counts and ln k! come from
    the composition entry of an n' >= n: k_2..k_d are views of its last
    rows columns, and k_1 is its first row lowered by n' - n.

    Before anything is allocated, _table_error checks the table's
    estimated peak against TABLE_BYTE_BUDGET; an excess raises
    CapExceededError.

    The arrays are read-only and fresh, except under curve, whose
    _Workspace supplies the weights, the composition entry and the rows:
    the table is then a view of its first three rows, valid until its
    merge, which takes them over.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    d, ws = battery.dim, _workspace
    weights, zero_levels = ws.levels if ws else _level_weights(spectrum, battery)
    if error := _table_error(n, d):
        raise error
    rows = composition_count(n, d)
    counts, log_fact = ws.top if ws else _compositions.get(n, d)
    tail = counts[:, -rows:]
    k = [tail[0] - (log_fact.size - 1 - n), *tail[1:]]
    sums, term, flags = ((ws.floats[:3, :rows], ws.floats[3:6, :rows], ws.flags[:rows])
                         if ws else (np.empty((3, rows)), np.empty((3, rows)), None))
    prob_energy, log_mult = sums[:2], sums[2]
    np.multiply(k[0], weights[0], out=prob_energy)
    log_fact.take(k[0], out=log_mult, mode="clip")
    for kj, w in zip(k[1:], weights[1:]):
        prob_energy += np.multiply(kj, w, out=term[:2])
        log_mult += log_fact.take(kj, out=term[2], mode="clip")
    np.subtract(log_fact[n], log_mult, out=log_mult)
    for j in zero_levels:
        np.copyto(sums[0], -np.inf, where=np.greater(k[j], 0, out=flags))
    sums.flags.writeable = False
    log_prob, total_energy, log_mult = sums
    return WeightedLevelTable(n=n, dim=d, log_prob=log_prob,
                              energy=total_energy, log_mult=log_mult)


def _sort_order(key: np.ndarray, out: np.ndarray,
                flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending order of key, and key in that order (written into out);
    tied keys keep their table order. flags is scratch of key's size.

    Without ties the permutation is unique, so the plain argsort is taken;
    only tied keys need the slower stable sort, which keeps the result a
    function of the table alone."""
    order = key.argsort()
    # every index is in range; take's default mode="raise" would gather
    # into a fresh temporary before copying to out
    sorted_key = key.take(order, out=out, mode="clip")
    if np.equal(sorted_key[1:], sorted_key[:-1], out=flags[:key.size - 1]).any():
        # gathered again so that 0.0 and -0.0, which tie, keep their bits;
        # the plain order goes first, so one int64 order is held at a time
        del order
        order = key.argsort(kind="stable")
        key.take(order, out=out, mode="clip")
    return order, sorted_key


def _merge_order(ws: _Workspace, side: int, key: np.ndarray, out: np.ndarray,
                 flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_sort_order(key, out, flags), or ws.orders[side], the order handed
    down from the last merge, when the keys it gathers ascend with ties in
    index order, which makes it _sort_order's one permutation. A fresh
    order replaces the one there, so the next merge tries it."""
    kept = ws.orders[side]
    if kept.size == key.size:
        sorted_key = key.take(kept, out=out, mode="clip")
        down = np.less_equal(sorted_key[1:], sorted_key[:-1], out=flags[:key.size - 1])
        at = down.nonzero()[0] if down.any() else None
        if at is None or (np.array_equal(sorted_key[at + 1], sorted_key[at])
                          and (kept[at + 1] > kept[at]).all()):
            return kept, sorted_key
    order, sorted_key = _sort_order(key, out, flags)
    # int32 halves what is kept; TABLE_BYTE_BUDGET keeps rows far below 2^31
    ws.orders[side] = order = order.astype(np.int32)
    return order, sorted_key


def _ladder_blocks(a: np.ndarray) -> list[np.ndarray]:
    """Views of a: its whole LADDER_BLOCK-row blocks as one (blocks,
    LADDER_BLOCK) array, then the shorter tail as a (1, rows) array."""
    full = a.size - a.size % LADDER_BLOCK
    blocks = [a[:full].reshape(-1, LADDER_BLOCK)]
    if full < a.size:
        blocks.append(a[full:].reshape(1, -1))
    return blocks


def _linear_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per block (row): its largest entry, and whether it is summed
    linearly, i.e. its finite entries span at most LADDER_LINEAR_SPAN
    (a -inf entry adds an exact zero to a linear sum)."""
    top = blocks.max(axis=1)
    low = blocks.min(axis=1)
    holed = (low == -np.inf).nonzero()[0]
    if holed.size:
        # the least finite entry; +inf for a block of -inf alone
        part = blocks[holed]
        low[holed] = part.min(axis=1, where=part > -np.inf, initial=np.inf)
    return top, low >= top - LADDER_LINEAR_SPAN


def _log_ladder(log_counts: np.ndarray, out: np.ndarray | None = None,
                lead: int = 0) -> np.ndarray:
    """ln of the cumulative counts, with ln 0 = -inf prepended; written
    into out (log_counts.size + 1 entries) if given. out may start one
    entry before log_counts in the same row: the ladder is then written
    over its own counts, with the same bits.

    The first lead counts are zero (F's ground rows): their entries of
    log_counts must be -inf, or lie under out, which sets them so. The
    ladder is -inf through them and summed from there on, in the regime
    of the whole length and with the blocks where they were, so lead
    moves no bit; it spares the one-block path its search for the least
    finite entry.

    Under LADDER_LOG_ROWS counts, np.logaddexp.accumulate: one call,
    cheaper than a linear block below about 250 rows. Up to
    LADDER_ONE_BLOCK counts whose finite entries span at most
    LADDER_LINEAR_SPAN, one linear block, top + ln(cumsum(exp(x - top)))
    with top the largest entry; its rounding is 3-13x below accumulate's
    at 455-2,002 rows and within 1.6x of the blocks' at 3,003-8,128, but
    10x theirs at 118,755 rows. Any other ladder is accumulated under
    LADDER_BLOCK rows, else summed in blocks (_blocked_ladder). A -inf
    entry adds an exact zero, and the leading run of -inf, where the count
    is still 0, stays -inf. No row-sized array is made besides the ladder.
    """
    ladder = np.empty(log_counts.size + 1) if out is None else out
    ladder[:lead + 1] = -np.inf
    acc, rows = ladder[1:], log_counts.size
    if lead == rows or (LADDER_LOG_ROWS <= rows <= LADDER_ONE_BLOCK
                        and _one_linear_block(log_counts[lead:], acc[lead:])):
        return ladder
    if rows < LADDER_BLOCK:
        np.logaddexp.accumulate(log_counts[lead:], out=acc[lead:])
    else:
        _blocked_ladder(log_counts, acc)
    return ladder


def _one_linear_block(x: np.ndarray, acc: np.ndarray) -> bool:
    """Sum x into acc as one linear block and return True, or return False
    with acc untouched when x's finite entries span more than
    LADDER_LINEAR_SPAN. The ufuncs' own reduce and accumulate skip the
    wrappers of x.max() and np.cumsum, dearer than a few hundred rows."""
    top, low = np.maximum.reduce(x), np.minimum.reduce(x)
    holed = low == -np.inf
    if holed:
        # the least finite entry; +inf when every entry is -inf, which
        # sums to 0 whatever its shift
        low = np.minimum.reduce(x, where=x > -np.inf, initial=np.inf)
        top = 0.0 if top == -np.inf else top
    if low < top - LADDER_LINEAR_SPAN:
        return False
    np.subtract(x, top, out=acc)
    np.exp(acc, out=acc)
    np.add.accumulate(acc, out=acc)
    if holed:
        # the leading -inf run sums to 0: ln 0 = -inf
        with np.errstate(divide="ignore"):
            np.log(acc, out=acc)
    else:
        np.log(acc, out=acc)
    acc += top
    return True


def _blocked_ladder(log_counts: np.ndarray, ladder: np.ndarray) -> None:
    """ln of the cumulative counts through each row, written into ladder
    (log_counts.size entries), in linear blocks of LADDER_BLOCK rows.

    A block's S = cumsum(exp(x - top)), top its largest entry; with c the
    carry, ln of the counts before the block, from np.logaddexp.accumulate
    over the block totals, its ladder is s + ln(S e^(top - s) + e^(c - s)),
    s = max(top, c). A block whose finite entries span more than
    LADDER_LINEAR_SPAN could start below the normal float range, so it is
    accumulated in logs from c, from a copy of its counts: ladder may be
    log_counts itself."""
    parts = list(zip(_ladder_blocks(log_counts), _ladder_blocks(ladder)))
    shifts, wide, totals = [], [], []
    for x, acc in parts:
        top, linear = _linear_blocks(x)
        log_rows = (~linear).nonzero()[0]
        wide.append((log_rows, x[log_rows]))
        # a block of -inf alone sums to 0 whatever its shift
        top[top == -np.inf] = 0.0
        np.subtract(x, top[:, None], out=acc)
        np.exp(acc, out=acc)
        np.cumsum(acc, axis=1, out=acc)
        last = acc[:, -1]
        totals.append(top + np.log(last, out=np.full(last.size, -np.inf),
                                   where=last > 0.0))
        shifts.append(top)
    totals = np.concatenate(totals)
    carries = np.empty(totals.size)
    carries[0] = -np.inf
    np.logaddexp.accumulate(totals[:-1], out=carries[1:])
    start = 0
    for (_, acc), top, (log_rows, counts) in zip(parts, shifts, wide):
        carry = carries[start:start + len(acc)]
        start += len(acc)
        s = np.maximum(top, carry)
        acc *= np.exp(top - s)[:, None]
        acc += np.exp(carry - s)[:, None]
        acc[log_rows] = 1.0
        # the leading -inf run sums to 0 (s is finite): ln 0 = -inf
        with np.errstate(divide="ignore"):
            np.log(acc, out=acc)
        acc += s[:, None]
        for b, row_counts in zip(log_rows, counts):
            row = acc[b]
            row[:] = row_counts
            row[0] = np.logaddexp(carry[b], row[0])
            np.logaddexp.accumulate(row, out=row)
    # a block's end and the carry after it round apart, so a block can
    # start a few ulps below the end of the one before; raise those
    # entries to keep the ladder nondecreasing
    starts = ladder[LADDER_BLOCK::LADDER_BLOCK]
    ends = np.maximum.accumulate(ladder[LADDER_BLOCK - 1:-1:LADDER_BLOCK])
    for b in (starts < ends).nonzero()[0]:
        block = ladder[(b + 1) * LADDER_BLOCK:(b + 2) * LADDER_BLOCK]
        np.maximum(block, ends[b], out=block)


def _chunk_rows(P: np.ndarray, Q: np.ndarray, m: int):
    """Per chunk of MERGE_CHUNK probability rows s..t-1: s, t and g_at,
    the energy row each of P_s..P_t falls in. Energy row j holds the
    counts (Q[j], Q[j + 1]], so g_at is the search of Q[1:] (row 0 for
    P_0 = -inf), clamped so that an ulp of overshoot stays in the last row.

    P ascends, so a chunk's rows lie between lo, the last row of the chunk
    before, and hi, the row of P_t: each chunk searches Q[1 + lo:1 + hi]
    alone. The last chunk's hi is the last row, found with no search."""
    rows = Q.size - 1
    lo = 0
    for s in range(0, m, MERGE_CHUNK):
        t = min(s + MERGE_CHUNK, m)
        hi = rows if t == m else int(Q[1:].searchsorted(P[t]))
        g_at = Q[1 + lo:1 + hi].searchsorted(P[s:t + 1])
        if lo:
            g_at += lo
        yield s, t, np.minimum(g_at, rows - 1, out=g_at)
        lo = hi


def passive_energy_per_copy(table: WeightedLevelTable, *,
                            _workspace: _Workspace | None = None) -> float:
    """(1/n) tr(sigma H) for the passive rearrangement of the n-copy
    product state, without expanding the d^n levels.

    The passive state puts the largest probabilities on the lowest
    energies. On the count axis, probability row i (log_prob descending)
    occupies [P_{i-1}, P_i), P the cumulative multiplicity, and the energy
    rows (ascending) tile the same axis with their own ladder Q. Row i
    contributes its mass exp(log_prob + log_mult) times its interval's
    mean energy: that of the one energy row holding the interval, or else
    (F(P_i) - F(P_{i-1})) / width, F the integral of the energy ladder.
    The ladders are kept as logarithms (_log_ladder), so counts up to d^n
    with n in the thousands lose nothing to underflow, and nothing that is
    exponentiated exceeds 1, the total mass or an energy.

    Two checks, each allowing the worst-case rounding of the ladders
    (rows * eps * (1 + ln total count) relative), raise NoConvergenceError:
    the ladder mass sum_i p_i * width_i must match the row mass
    sum_i exp(log_prob_i + log_mult_i), and the mean of each interval that
    crosses energy rows must lie between the energies of its end rows.
    They catch a corrupted count ladder or energy integral, not a wrong
    row index that leaves every mean inside its rows.

    Intermediates go to a _Workspace: curve's, whose first three rows are
    the table's, or one made for this call; F is written over its own
    counts. F's counts and, after the ladders, all rows go in chunks of
    MERGE_CHUNK, but the masses and e(n) are numpy sums over whole rows,
    not BLAS dots: no bit hangs on the chunks or BLAS threads.
    """
    lp, en, lm, n = table.log_prob, table.energy, table.log_mult, table.n
    rows = len(table)
    ws = _workspace if _workspace is not None else _Workspace(rows)
    b, c, flags = ws.merge, ws.chunk, ws.flags
    # under curve b[0..2] are the table's rows, each written once dead
    # probability side: log_prob descending, i.e. -log_prob ascending; the
    # rows of zero probability (-log_prob = inf) sort last and are left out
    p_order, neg_lp = _merge_order(ws, 0, np.negative(lp, out=b[0][:rows]),
                                   b[3][:rows], flags)
    m = int(neg_lp.searchsorted(np.inf))
    if m == 0:
        raise ValidationError("table has no nonzero-probability entries")
    p_order, neg_lp = p_order[:m], neg_lp[:m]
    # energy side: all levels, energy ascending
    e_order, energy = _merge_order(ws, 1, en, b[0][:rows], flags)

    lm_p = lm.take(p_order, out=b[1][:m], mode="clip")
    P = _log_ladder(lm_p, b[4][:m + 1])
    # one entry into its row, so that F can be written over these counts
    lm_e = lm.take(e_order, out=b[5][1:rows + 1], mode="clip")
    Q = _log_ladder(lm_e, b[2][:rows + 1])
    # ln(count * excess) per energy row, added a chunk at a time; the z
    # ground rows have excess 0, so F is -inf through them
    z = int(energy.searchsorted(energy[0], "right"))
    for s in range(z, rows, MERGE_CHUNK):
        t = min(s + MERGE_CHUNK, rows)
        excess = np.subtract(energy[s:t], energy[0], out=c[0][:t - s])
        lm_e[s:t] += np.log(excess, out=excess)
    F = _log_ladder(lm_e, b[5][:rows + 1], lead=z)

    # neg_lp = -log_prob, so these are the sums log_prob + ln count
    mass = np.subtract(lm_p, neg_lp, out=lm_p)
    np.exp(mass, out=mass)
    row_mass = float(mass.sum())
    p_width = np.subtract(P[1:], neg_lp, out=neg_lp)
    np.exp(p_width, out=p_width)
    # worst-case ladder rounding, relative: a log step rounds ln count by
    # eps * ln count, and so does a linear block's x - max, as counts are
    # >= 1 and |x - max| <= ln total; rows such steps, or rows additions
    # of a linear running sum, stay within rows * eps * (1 + ln total)
    slack = m * _EPS * (1.0 + float(P[-1]))
    bound = 8.0 * slack * (abs(float(energy[0])) + abs(float(energy[-1])))
    # per chunk of rows s..t-1; p_width and mass stay whole for their sums
    inside, a_end = True, 0.0
    for s, t, g_at in _chunk_rows(P, Q, m):
        L, P_lo, P_hi = t - s, P[s:t], P[s + 1:t + 1]
        # interval i ends in energy row g[i]
        g = g_at[1:]
        q_below = Q.take(g, out=c[0][:L], mode="clip")
        mean = energy.take(g, out=c[1][:L], mode="clip")
        # A[i] = F(P_i) / P_i, the mean excess energy over [0, P_i), A[0]
        # the last chunk's end: A[1:] = exp(F[g] - P_hi) -
        # expm1(q_below - P_hi) * (energy[g] - energy[0])
        A = c[2][:L + 1]
        A[0] = a_end
        head = np.subtract(F.take(g, out=A[1:], mode="clip"), P_hi, out=A[1:])
        np.exp(head, out=head)
        tail = np.subtract(q_below, P_hi, out=c[3][:L])
        np.expm1(tail, out=tail)
        tail *= np.subtract(mean, energy[0], out=c[4][:L])
        head -= tail
        a_end = A[L]
        # width / P_i = -expm1(P_lo - P_hi); an interval crosses an energy
        # boundary iff one lies strictly above its start
        rel_width = np.subtract(P_lo, P_hi, out=c[4][:L])
        np.expm1(rel_width, out=rel_width)
        np.negative(rel_width, out=rel_width)
        p_width[s:t] *= rel_width
        cross = np.greater(q_below, P_lo, out=flags[:L]).nonzero()[0]
        if k := cross.size:
            # mean_cross = energy[0] + (a_lo + (a_hi - a_lo) / rw), with
            # a_lo, a_hi and rw = A[cross], A[cross + 1] and rel_width[cross]
            a_lo = A.take(cross, out=c[3][:k], mode="clip")
            rw = rel_width.take(cross, out=c[0][:k], mode="clip")
            mean_cross = A[1:].take(cross, out=c[4][:k], mode="clip")
            mean_cross -= a_lo
            mean_cross /= rw
            np.add(a_lo, mean_cross, out=mean_cross)
            np.add(energy[0], mean_cross, out=mean_cross)
            # ladder errors move a crossing mean by a few times bound / 8 /
            # rw: stray = max(energy[g_at[i]] - mean, mean - energy[g[i]]) * rw
            above = mean.take(cross, out=c[3][:k], mode="clip")
            np.subtract(mean_cross, above, out=above)
            mean[cross] = mean_cross
            stray = energy.take(g_at[cross], out=c[2][:k], mode="clip")
            stray -= mean_cross
            np.maximum(stray, above, out=stray)
            stray *= rw
            inside &= bool(np.less_equal(stray, bound, out=flags[:k]).all())
        mass[s:t] *= mean
    ladder_mass = float(p_width.sum())
    if not abs(ladder_mass - row_mass) <= slack * row_mass:
        raise NoConvergenceError(
            f"passive merge lost mass: ladder {ladder_mass!r} vs rows "
            f"{row_mass!r} over {m} rows (n={n})")
    if not inside:
        raise NoConvergenceError(
            f"passive merge: an interval mean lies outside its energy rows "
            f"over {m} rows (n={n})")
    return float(mass.sum()) / n


def brute_force_oracle(spectrum, battery: BatterySpec, n: int) -> float:
    """Reference value by explicit d^n expansion: materialize every
    product probability and sum energy, sort, dot. Independent of the
    composition table and of the merge above."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    r = _validated_spectrum(spectrum, battery.dim)
    probs = np.sort(product_populations(r, n))[::-1]
    energies = np.sort(product_energies(battery, n))
    return float(np.dot(probs, energies)) / n


@dataclass(frozen=True)
class EnsembleCurve:
    """Per-copy passive energies and extractable work for n = 1..n_max."""

    passive_energy: dict[int, float]
    asymptote: float
    initial_energy: float

    @property
    def n_values(self) -> list[int]:
        return sorted(self.passive_energy)

    @property
    def work(self) -> dict[int, float]:
        """w(n) = tr(rho H) - e(n), per copy."""
        return {n: self.initial_energy - e
                for n, e in self.passive_energy.items()}


def curve(state: QuantumState, battery: BatterySpec, n_max: int) -> EnsembleCurve:
    """Passive energy per copy for n = 1..n_max, with the entropy-matched
    Gibbs energy as asymptote.

    e(n) depends only on the spectrum of rho (conjugation-invariant);
    w(n) = tr(rho H) - e(n) uses the energy of the supplied state. If the
    table byte budget refuses a table before n_max, raises
    CapExceededError carrying the largest feasible n and the partial
    curve, found before any table is built.

    n runs from the largest feasible n down to 1 in one _Workspace sized
    to that table, with the spectrum validated once and the composition
    entry held even when too large to cache. passive_energy still lists
    n ascending.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    spectrum = state.spectrum_descending
    initial = energy(state, battery)
    asymptote = match_entropy(battery, entropy_target(state, battery)).gibbs_energy
    d = battery.dim
    # rows grow with n: one check if n_max fits, else a scan from n = 1 up
    # to the first refused table
    n_top = n_max if _table_error(n_max, d) is None else 0
    while n_top < n_max and (stop := _table_error(n_top + 1, d)) is None:
        n_top += 1
    # largest n first: its table and merge touch every page the curve needs
    if n_top:
        workspace = _Workspace(composition_count(n_top, d))
        workspace.levels = _level_weights(spectrum, battery)
        workspace.top = _compositions.get(n_top, d)
    e = [0.0] * n_top
    for n in range(n_top, 0, -1):
        table = build_level_table(spectrum, battery, n, _workspace=workspace)
        e[n - 1] = passive_energy_per_copy(table, _workspace=workspace)
        if n > 1:
            workspace.hand_down(composition_count(n - 1, d))
    result = EnsembleCurve(passive_energy=dict(enumerate(e, start=1)),
                           asymptote=asymptote, initial_energy=initial)
    if n_top < n_max:
        raise CapExceededError(
            f"curve stopped at n={n_top + 1}: {stop}", required=stop.required,
            cap=stop.cap, largest_feasible_n=n_top, partial=result) from stop
    return result


@dataclass(frozen=True)
class CompletePassivityReport:
    """Finite-n diagnostic for complete passivity (Gibbs-ness)."""

    is_gibbs_like: bool
    first_active_n: int | None
    fit_beta: float
    fit_residual: float
    work: dict[int, float] = field(repr=False)


def complete_passivity_check(state: QuantumState, battery: BatterySpec,
                             n_max: int) -> CompletePassivityReport:
    """Check whether per-copy work stays below ACTIVE_WORK_TOL * n for all
    n <= n_max.

    Requires a state diagonal in the energy basis. The work is curve's,
    so a cap hit raises its CapExceededError with the partial curve. Also
    reports a direct Gibbs-form fit of ln(populations) against the
    energies: least-squares beta with RMS residual. A zero population is
    incompatible with any finite-beta Gibbs form, so the residual is
    infinite then, except for the pure ground state, reported as the
    beta = infinity limit.
    """
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    if state.max_offdiagonal() > DIAGONAL_TOL:
        raise NotDiagonalError(
            f"state has off-diagonal weight {state.max_offdiagonal():.3e}; "
            "complete-passivity check needs a diagonal state")

    work = curve(state, battery, n_max).work
    first_active = next((n for n, w in work.items() if w > ACTIVE_WORK_TOL * n), None)

    pops = state.diagonal_populations()
    positive = pops > 0.0
    if int(np.count_nonzero(positive)) == 1:
        fit_beta, fit_residual = math.inf, (0.0 if positive[0] else math.inf)
    else:
        x = battery.energies[positive]
        y = np.log(pops[positive])
        xc = x - x.mean()
        fit_beta = -float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
        resid = y - (y.mean() - fit_beta * xc)
        fit_residual = float(np.sqrt(np.mean(resid ** 2)))
        if not np.all(positive):
            fit_residual = math.inf

    return CompletePassivityReport(is_gibbs_like=first_active is None,
                                   first_active_n=first_active, fit_beta=fit_beta,
                                   fit_residual=fit_residual, work=work)


def _product_expansion(factor: np.ndarray, n: int, ufunc, unit: float) -> np.ndarray:
    """factor combined with itself n times by ufunc.outer, flattened."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if error := _cap_error(factor.size ** n, BRUTE_FORCE_CAP,
                           "levels exceed the brute-force cap"):
        raise error
    out = np.array([unit])
    for _ in range(n):
        out = ufunc.outer(out, factor).ravel()
    return out


def product_energies(battery: BatterySpec, n: int) -> np.ndarray:
    """Diagonal of the sum Hamiltonian on the n-copy product basis."""
    return _product_expansion(battery.energies, n, np.add, 0.0)


def product_populations(populations, n: int) -> np.ndarray:
    """Populations of the n-fold product of a diagonal state."""
    return _product_expansion(np.asarray(populations, dtype=float), n,
                              np.multiply, 1.0)
