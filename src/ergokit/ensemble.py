"""Exact per-copy passive energies for n independent battery copies.

The spectrum of the n-fold product state and of the sum Hamiltonian both
depend on a configuration |i_1 ... i_n> only through its type class: the
composition (k_1, ..., k_d) counting how often each level occurs. One
table entry per composition, carrying a log-probability, a total energy,
and a log-multinomial multiplicity, replaces the d^n level expansion with
C(n+d-1, d-1) rows. Probabilities and multiplicities stay in the log
domain; only ratios bounded by the total mass are ever exponentiated.
The merge's cumulative count ladders are summed linearly within blocks
of LADDER_BLOCK rows, each relative to its largest count and spanning at
most e^LADDER_LINEAR_SPAN, and the blocks are joined in logs, so no
count is rescaled out of the normal float range.

The compositions of (n, d) are cached as a read-only (d, rows) count
array of the smallest unsigned dtype that holds n, beside their
log-multiplicities: d * itemsize + 8 bytes per row (14 at d = 6, n <=
255), in a cache bounded by COMPOSITION_CACHE_BYTES. A table's log_prob
and energy are summed one level at a time in a fixed left-to-right order
with elementwise operations, no BLAS call, so each row equals the scalar
sum bit for bit. One uncached build plus its merge peaks below
TABLE_BYTES_PER_ROW bytes per row; a table whose estimate exceeds
TABLE_BYTE_BUDGET is refused before anything is allocated.

The build and the merge write their row-sized intermediates into a
_Workspace of preallocated rows (ufunc out=, take(out=), in-place
operations) instead of fresh temporaries. A public call gets a workspace
of its own and returns fresh, read-only arrays. curve first finds the
largest feasible n, makes one workspace for that table and evaluates n
from there down to 1: the first, largest merge touches every page of the
workspace, and what numpy still allocates per call (argsort,
searchsorted, nonzero) fits in memory the process has already touched,
so smaller n take few new page faults. The arithmetic is the same
operations in the same order as with temporaries, so e(n) keeps its bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .battery import TRACE_TOL, BatterySpec, QuantumState, energy
from .errors import (CapExceededError, NoConvergenceError, NotDiagonalError,
                     ValidationError)
from .gibbs import entropy_target, match_entropy

DEFAULT_COMPOSITION_CAP = 50_000_000
COMPOSITION_CAP_ENV = "ERGOKIT_MAX_COMPOSITIONS"
# estimated peak bytes of one uncached build plus its merge, per table
# row; tracemalloc reads 133.5, 129.5 and 127.7 at (d, n) = (8, 14),
# (6, 24) and (3, 1024), and a whole curve with its compositions cached
# 117.5 and 115.5 at (8, 14) and (6, 24)
TABLE_BYTES_PER_ROW = 200
# build_level_table refuses a table whose estimated peak exceeds this
TABLE_BYTE_BUDGET = 2 * 2**30
# the composition cache evicts its least recently used entries beyond this
COMPOSITION_CACHE_BYTES = 64 * 2**20
BRUTE_FORCE_CAP = 10_000_000
DIAGONAL_TOL = 1e-10
# complete_passivity_check: per-copy work above this times n is active
ACTIVE_WORK_TOL = 1e-9
# _log_ladder sums ladders of at least this many rows in linear blocks of
# this many rows
LADDER_BLOCK = 2048
# a linear block spans at most this in ln count, so each exp(x - block
# max) >= e^-690 stays a normal float (those end near e^-708)
LADDER_LINEAR_SPAN = 690.0
# row buffers passive_energy_per_copy takes from its _Workspace
_MERGE_BUFFERS = 9
_EPS = float(np.finfo(float).eps)


def composition_cap() -> int:
    """Enumeration cap: the environment override, else the built-in
    default."""
    env = os.environ.get(COMPOSITION_CAP_ENV)
    if env is None:
        return DEFAULT_COMPOSITION_CAP
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValidationError(
            f"{COMPOSITION_CAP_ENV} must be an integer >= 1, got {env!r}")
    return value


def composition_count(n: int, d: int) -> int:
    return math.comb(n + d - 1, d - 1)


def _cap_error(required: int, cap: int, what: str,
               note: str = "") -> CapExceededError | None:
    if required > cap:
        return CapExceededError(f"{required} {what} {cap}{note}",
                                required=required, cap=cap)
    return None


def _check_cap(required: int, cap: int, what: str, note: str = "") -> None:
    error = _cap_error(required, cap, what, note)
    if error is not None:
        raise error


def _table_error(n: int, d: int) -> CapExceededError | None:
    """Why the (n, d) level table is refused, or None: its rows exceed
    composition_cap(), or at TABLE_BYTES_PER_ROW bytes each they exceed
    TABLE_BYTE_BUDGET."""
    rows = composition_count(n, d)
    return (_cap_error(rows, composition_cap(), "compositions exceed the cap",
                       f" (override with {COMPOSITION_CAP_ENV})")
            or _cap_error(rows * TABLE_BYTES_PER_ROW, TABLE_BYTE_BUDGET,
                          "estimated bytes exceed the table byte budget",
                          f" ({rows} rows at {TABLE_BYTES_PER_ROW} bytes each)"))


def _composition_matrix(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All compositions of n into d parts and their log-multiplicities.

    counts is a read-only (d, rows) array of np.min_scalar_type(n); its
    column i is composition i, lexicographic in (k_1, ..., k_d).
    log_mult[i] = ln(n!) - (ln k_1! + ... + ln k_d!), summed left to right.
    """
    dtype = np.min_scalar_type(n)
    # blocks[m]: compositions of m into j parts. Those into j parts are
    # k_1 = 0..m, each followed by the (j-1)-part compositions of m - k_1;
    # m descends so that blocks[m - k_1] still holds j - 1 parts.
    blocks = [np.full((1, 1), m, dtype=dtype) for m in range(n + 1)]
    # sizes[m]: the number of columns of blocks[m]
    sizes = [1] * (n + 1)
    for j in range(2, d + 1):
        # the last pass needs only m = n
        for m in range(n, -1, -1) if j < d else (n,):
            tail_sizes = sizes[m::-1]
            sizes[m] = sum(tail_sizes)
            K = np.empty((j, sizes[m]), dtype=dtype)
            K[0] = np.repeat(np.arange(m + 1, dtype=dtype), tail_sizes)
            np.concatenate(blocks[m::-1], axis=1, out=K[1:])
            blocks[m] = K
    counts = blocks[n]
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_mult = log_fact[counts[0]]
    for k in counts[1:]:
        log_mult += log_fact[k]
    np.subtract(log_fact[n], log_mult, out=log_mult)
    counts.flags.writeable = False
    log_mult.flags.writeable = False
    return counts, log_mult


class _CompositionCache:
    """_composition_matrix results by (n, d), least recently used first.

    Holds at most COMPOSITION_CACHE_BYTES; an entry larger than that is
    returned but not kept."""

    def __init__(self):
        self.entries: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.nbytes = 0
        self.misses = 0

    def get(self, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        key = (n, d)
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.entries[key] = entry
            return entry
        self.misses += 1
        entry = _composition_matrix(n, d)
        size = _nbytes(entry)
        if size <= COMPOSITION_CACHE_BYTES:
            while self.nbytes + size > COMPOSITION_CACHE_BYTES:
                self.nbytes -= _nbytes(self.entries.pop(next(iter(self.entries))))
            self.entries[key] = entry
            self.nbytes += size
        return entry


def _nbytes(arrays) -> int:
    return sum(a.nbytes for a in arrays)


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
    """Row-sized scratch arrays for build_level_table and
    passive_energy_per_copy; curve makes one and reuses it for every n.

    floats holds rows of at least rows + 1 entries: the table's log_prob
    and energy (rows 0 and 1; absent when table is False), then
    _MERGE_BUFFERS rows for passive_energy_per_copy, whose first two also
    hold one level's term during the build; flags is one bool row."""

    def __init__(self, rows: int, table: bool = True):
        # whole 64-byte lines per row, so every row starts aligned alike
        width = (rows + 8) // 8 * 8
        self.floats = np.empty((_MERGE_BUFFERS + 2 * table, width))
        self.flags = np.empty(width, dtype=bool)
        self.merge = list(self.floats[-_MERGE_BUFFERS:])

    def table(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(2, rows) views for the table's sums and one level's term, and
        the flags."""
        return self.floats[:2, :rows], self.floats[2:4, :rows], self.flags[:rows]


def _validated_spectrum(spectrum, d: int) -> np.ndarray:
    r = np.asarray(spectrum, dtype=float)
    if r.ndim != 1 or r.size != d:
        raise ValidationError(
            f"spectrum must be a length-{d} vector, got shape {r.shape}")
    if r.min() < 0.0:
        raise ValidationError(f"spectrum entries must be >= 0, got min {r.min()!r}")
    s = float(r.sum())
    if abs(s - 1.0) > TRACE_TOL:
        raise ValidationError(f"spectrum must sum to 1 within {TRACE_TOL}, got {s!r}")
    return r


def build_level_table(spectrum, battery: BatterySpec, n: int, *,
                      _workspace: _Workspace | None = None) -> WeightedLevelTable:
    """One entry per composition of n into d parts.

    log_prob and energy are filled one part j at a time, left to right:
    each row is k_1 x_1 + k_2 x_2 + ... + k_d x_d in float64 with x_j =
    math.log(r_j) or eps_j, bit for bit the scalar sum in that order. No
    BLAS call runs, so the bits do not depend on the CPU's kernels. A
    zero eigenvalue contributes 0 and turns every row that uses it to
    -inf. log_mult is the cached entry of (n, d).

    Before anything is allocated, the rows are checked against
    composition_cap() and the estimated peak of build plus merge,
    TABLE_BYTES_PER_ROW (200) bytes per row, against TABLE_BYTE_BUDGET;
    either excess raises CapExceededError.

    The table's arrays are read-only and fresh, except under curve, which
    passes its _Workspace: they are then views of the workspace, valid
    until the next build into it.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    d = battery.dim
    r = _validated_spectrum(spectrum, d)
    error = _table_error(n, d)
    if error is not None:
        raise error
    rows = composition_count(n, d)

    counts, log_mult = _compositions.get(n, d)
    r_levels = r.tolist()
    # weights[j] = (ln r_j, eps_j) as a column, ln 0 taken as 0
    weights = np.empty((d, 2, 1))
    weights[:, 0, 0] = [math.log(x) if x > 0.0 else 0.0 for x in r_levels]
    weights[:, 1, 0] = battery.energies
    if _workspace is None:
        sums, term, flags = np.empty((2, rows)), np.empty((2, rows)), None
    else:
        sums, term, flags = _workspace.table(rows)
    np.multiply(counts[0], weights[0], out=sums)
    for k, w in zip(counts[1:], weights[1:]):
        sums += np.multiply(k, w, out=term)
    for k, x in zip(counts, r_levels):
        if x == 0.0:
            np.copyto(sums[0], -np.inf, where=np.greater(k, 0, out=flags))
    sums.flags.writeable = False
    log_prob, total_energy = sums
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
        # gathered again so that 0.0 and -0.0, which tie, keep their bits
        order = key.argsort(kind="stable")
        key.take(order, out=out, mode="clip")
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


def _log_ladder(log_counts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ln of the cumulative counts, with ln 0 = -inf prepended; written
    into out (log_counts.size + 1 entries) if given.

    Fewer than LADDER_BLOCK counts are accumulated by np.logaddexp.accumulate.
    A longer ladder is cut into blocks of LADDER_BLOCK rows, each summed
    linearly: S = cumsum(exp(x - top)), top the block's largest entry.
    The carry c, ln of the counts before the block, is a
    np.logaddexp.accumulate over the block totals top + ln S[-1], and the
    block's ladder is s + ln(S e^(top - s) + e^(c - s)), s = max(top, c).
    A block whose finite entries span more than LADDER_LINEAR_SPAN could
    start with counts below the normal float range; it is accumulated in
    logs from c instead. A -inf entry adds an exact zero to a linear
    block, and the ladder's leading run of -inf, where the count is still
    0, stays -inf. No row-sized array is made besides the ladder.
    """
    ladder = np.empty(log_counts.size + 1) if out is None else out
    ladder[0] = -np.inf
    if log_counts.size < LADDER_BLOCK:
        np.logaddexp.accumulate(log_counts, out=ladder[1:])
        return ladder
    parts = list(zip(_ladder_blocks(log_counts), _ladder_blocks(ladder[1:])))
    shifts, linears, totals = [], [], []
    for x, acc in parts:
        top, linear = _linear_blocks(x)
        # a block of -inf alone sums to 0 whatever its shift
        top[top == -np.inf] = 0.0
        np.subtract(x, top[:, None], out=acc)
        np.exp(acc, out=acc)
        np.cumsum(acc, axis=1, out=acc)
        last = acc[:, -1]
        totals.append(top + np.log(last, out=np.full(last.size, -np.inf),
                                   where=last > 0.0))
        shifts.append(top)
        linears.append(linear)
    totals = np.concatenate(totals)
    carries = np.empty(totals.size)
    carries[0] = -np.inf
    np.logaddexp.accumulate(totals[:-1], out=carries[1:])
    start = 0
    for (x, acc), top, linear in zip(parts, shifts, linears):
        carry = carries[start:start + len(acc)]
        start += len(acc)
        s = np.maximum(top, carry)
        acc *= np.exp(top - s)[:, None]
        acc += np.exp(carry - s)[:, None]
        log_rows = (~linear).nonzero()[0]
        acc[log_rows] = 1.0
        # the leading -inf run sums to 0 (s is finite): ln 0 = -inf
        with np.errstate(divide="ignore"):
            np.log(acc, out=acc)
        acc += s[:, None]
        for b in log_rows:
            row = acc[b]
            row[:] = x[b]
            row[0] = np.logaddexp(carry[b], row[0])
            np.logaddexp.accumulate(row, out=row)
    # a block's end and the carry after it round apart, so a block can
    # start a few ulps below the end of the one before; raise those
    # entries to keep the ladder nondecreasing
    flat = ladder[1:]
    starts = flat[LADDER_BLOCK::LADDER_BLOCK]
    ends = np.maximum.accumulate(flat[LADDER_BLOCK - 1:-1:LADDER_BLOCK])
    for b in (starts < ends).nonzero()[0]:
        block = flat[(b + 1) * LADDER_BLOCK:(b + 2) * LADDER_BLOCK]
        np.maximum(block, ends[b], out=block)
    return ladder


def passive_energy_per_copy(table: WeightedLevelTable, *,
                            _workspace: _Workspace | None = None) -> float:
    """(1/n) tr(sigma H) for the passive rearrangement of the n-copy
    product state, without expanding the d^n levels.

    The passive state puts the largest probabilities on the lowest
    energies. On the count axis, probability row i (log_prob descending)
    occupies [P_{i-1}, P_i), P the cumulative multiplicity, and the
    energy rows (ascending) tile the same axis with their own ladder Q.
    Row i contributes its mass exp(log_prob + log_mult) times the mean
    energy over its interval: the energy of the one energy row that holds
    the interval, taken exactly, or else (F(P_i) - F(P_{i-1})) / width
    with F the piecewise-linear integral of the energy ladder.

    Both ladders and F are kept as logarithms (_log_ladder): a short
    ladder by np.logaddexp.accumulate, a long one in linear blocks whose
    entries span at most e^LADDER_LINEAR_SPAN, joined in logs. No
    multiplicity is ever rescaled out of range: counts up to d^n with n
    in the thousands lose nothing to underflow. Nothing that is
    exponentiated exceeds 1, the total mass or an energy.

    Two checks, each allowing the worst-case rounding of the ladders
    (rows * eps * (1 + ln total count) relative), raise NoConvergenceError:
    the ladder mass sum_i p_i * width_i must match the row mass
    sum_i exp(log_prob_i + log_mult_i), and the mean of each interval that
    crosses energy rows must lie between the energies of the rows holding
    its ends. They catch a corrupted count ladder or energy integral; a
    wrong row index that leaves every mean inside its rows is not caught.

    Intermediates go to _MERGE_BUFFERS rows of a _Workspace: curve's, or
    else one made for this call.
    """
    lp, en, lm, n = table.log_prob, table.energy, table.log_mult, table.n
    rows = len(table)
    ws = _workspace if _workspace is not None else _Workspace(rows, table=False)
    b, flags = ws.merge, ws.flags
    # probability side: log_prob descending, i.e. -log_prob ascending; the
    # rows of zero probability (-log_prob = inf) sort last and are left out
    p_order, neg_lp = _sort_order(np.negative(lp, out=b[0][:rows]),
                                  b[1][:rows], flags)
    m = int(neg_lp.searchsorted(np.inf))
    if m == 0:
        raise ValidationError("table has no nonzero-probability entries")
    p_order, neg_lp = p_order[:m], neg_lp[:m]
    # energy side: all levels, energy ascending
    e_order, energy = _sort_order(en, b[2][:rows], flags)

    lm_p = lm.take(p_order, out=b[0][:m], mode="clip")
    P = _log_ladder(lm_p, b[3][:m + 1])
    P_lo, P_hi = P[:-1], P[1:]
    lm_e = lm.take(e_order, out=b[4][:rows], mode="clip")
    excess = np.subtract(energy, energy[0], out=b[5][:rows])
    Q = _log_ladder(lm_e, b[6][:rows + 1])
    # ln(count * excess) per energy row; -inf on the ground row
    log_excess = b[7][:rows]
    log_excess.fill(-np.inf)
    lm_e += np.log(excess, out=log_excess,
                   where=np.greater(excess, 0.0, out=flags[:rows]))
    F = _log_ladder(lm_e, b[7][:rows + 1])

    # energy row j holds the counts (Q[j], Q[j + 1]]; ladder point P_i
    # falls in row g_at[i] (row 0 for P_0 = -inf), clamped so an ulp of
    # overshoot stays in the last row; interval i ends in row g = g_at[i+1]
    g_at = Q[1:].searchsorted(P)
    np.minimum(g_at, rows - 1, out=g_at)
    g = g_at[1:]
    q_below = Q.take(g, out=b[4][:m], mode="clip")
    # A[i] = F(P_i) / P_i, the mean excess energy over [0, P_i):
    # A[1:] = exp(F[g] - P_hi) - expm1(q_below - P_hi) * excess[g]
    A = b[8][:m + 1]
    A[0] = 0.0
    head = np.subtract(F.take(g, out=A[1:], mode="clip"), P_hi, out=A[1:])
    np.exp(head, out=head)
    tail = np.subtract(q_below, P_hi, out=b[6][:m])
    np.expm1(tail, out=tail)
    tail *= excess.take(g, out=b[7][:m], mode="clip")
    head -= tail
    # width / P_i = -expm1(P_lo - P_hi); an interval crosses an energy
    # boundary iff one lies strictly above its start
    rel_width = np.subtract(P_lo, P_hi, out=b[5][:m])
    np.expm1(rel_width, out=rel_width)
    np.negative(rel_width, out=rel_width)
    cross = np.greater(q_below, P_lo, out=flags[:m]).nonzero()[0]
    c = cross.size
    # mean_cross = energy[0] + (a_lo + (a_hi - a_lo) / rw), with a_lo,
    # a_hi and rw = A[cross], A[cross + 1] and rel_width[cross]
    a_lo = A.take(cross, out=b[6][:c], mode="clip")
    rw = rel_width.take(cross, out=b[4][:c], mode="clip")
    mean_cross = A[1:].take(cross, out=b[7][:c], mode="clip")
    mean_cross -= a_lo
    mean_cross /= rw
    np.add(a_lo, mean_cross, out=mean_cross)
    np.add(energy[0], mean_cross, out=mean_cross)
    mean = energy.take(g, out=b[6][:m], mode="clip")
    mean[cross] = mean_cross

    # neg_lp = -log_prob, so these are the sums log_prob + ln count
    mass = np.subtract(lm_p, neg_lp, out=lm_p)
    np.exp(mass, out=mass)
    row_mass = float(mass.sum())
    p_width = np.subtract(P_hi, neg_lp, out=neg_lp)
    np.exp(p_width, out=p_width)
    ladder_mass = float(np.dot(p_width, rel_width))
    # worst-case ladder rounding, relative: a log step rounds ln count by
    # eps * ln count, and so does a linear block's x - max, as counts are
    # >= 1 and |x - max| <= ln total; rows such steps, or rows additions
    # of a linear running sum, stay within rows * eps * (1 + ln total)
    slack = m * _EPS * (1.0 + float(P_hi[-1]))
    if not abs(ladder_mass - row_mass) <= slack * row_mass:
        raise NoConvergenceError(
            f"passive merge lost mass: ladder {ladder_mass!r} vs rows "
            f"{row_mass!r} over {m} rows (n={n})")
    # a crossing interval runs from row g_at[i] to row g_at[i + 1]; the
    # ladder errors in A and the width move its mean by a few times
    # slack * scale / rel_width:
    # stray = max(energy[g_at[cross]] - mean_cross, mean_cross - energy[g[cross]])
    stray = energy.take(g_at[cross], out=b[1][:c], mode="clip")
    stray -= mean_cross
    above = energy.take(g[cross], out=b[5][:c], mode="clip")
    np.subtract(mean_cross, above, out=above)
    np.maximum(stray, above, out=stray)
    stray *= rw
    scale = abs(float(energy[0])) + abs(float(energy[-1]))
    if not np.less_equal(stray, 8.0 * slack * scale, out=flags[:c]).all():
        raise NoConvergenceError(
            f"passive merge: an interval mean lies outside its energy rows "
            f"over {m} rows (n={n})")
    return float(np.dot(mass, mean)) / n


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
    composition cap or the table byte budget refuses a table before n_max,
    raises CapExceededError carrying the largest feasible n and the
    partial curve, found before any table is built.

    All n share one _Workspace sized to the largest feasible table, and n
    runs from that one down to 1; passive_energy still lists n ascending.
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
    workspace = _Workspace(composition_count(n_top, d)) if n_top else None
    e = [0.0] * n_top
    for n in range(n_top, 0, -1):
        table = build_level_table(spectrum, battery, n, _workspace=workspace)
        e[n - 1] = passive_energy_per_copy(table, _workspace=workspace)
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
    incompatible with any finite-beta Gibbs form, so the residual is infinite then, except for
    the pure ground state which is reported as the beta = infinity limit.
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
        ground_only = bool(positive[0])
        fit_beta = math.inf
        fit_residual = 0.0 if ground_only else math.inf
    else:
        x = battery.energies[positive]
        y = np.log(pops[positive])
        xc = x - x.mean()
        fit_beta = -float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
        resid = y - (y.mean() - fit_beta * xc)
        fit_residual = float(np.sqrt(np.mean(resid ** 2)))
        if not np.all(positive):
            fit_residual = math.inf

    return CompletePassivityReport(
        is_gibbs_like=first_active is None,
        first_active_n=first_active,
        fit_beta=fit_beta,
        fit_residual=fit_residual,
        work=work,
    )


def _product_expansion(factor: np.ndarray, n: int, ufunc, unit: float) -> np.ndarray:
    """factor combined with itself n times by ufunc.outer, flattened."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    _check_cap(factor.size ** n, BRUTE_FORCE_CAP, "levels exceed the brute-force cap")
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
