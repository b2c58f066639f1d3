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
sum bit for bit. One uncached build plus its merge peaks near
TABLE_BYTES_PER_ROW bytes per row; a table whose estimate exceeds
TABLE_BYTE_BUDGET is refused before anything is allocated.
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
# peak bytes of one uncached build plus its merge, per table row
# (tracemalloc, largest of (d, n) = (8, 14), (6, 24) and (3, 1024))
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


def _check_cap(required: int, cap: int, what: str, note: str = "") -> None:
    if required > cap:
        raise CapExceededError(f"{required} {what} {cap}{note}",
                               required=required, cap=cap)


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


def _validated_spectrum(spectrum, d: int) -> np.ndarray:
    r = np.asarray(spectrum, dtype=float)
    if r.ndim != 1 or r.size != d:
        raise ValidationError(
            f"spectrum must be a length-{d} vector, got shape {r.shape}")
    if np.min(r) < 0.0:
        raise ValidationError(f"spectrum entries must be >= 0, got min {np.min(r)!r}")
    s = float(np.sum(r))
    if abs(s - 1.0) > TRACE_TOL:
        raise ValidationError(f"spectrum must sum to 1 within {TRACE_TOL}, got {s!r}")
    return r


def build_level_table(spectrum, battery: BatterySpec, n: int) -> WeightedLevelTable:
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
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    d = battery.dim
    r = _validated_spectrum(spectrum, d)
    rows = composition_count(n, d)
    _check_cap(rows, composition_cap(),
               "compositions exceed the cap", f" (override with {COMPOSITION_CAP_ENV})")
    _check_cap(rows * TABLE_BYTES_PER_ROW, TABLE_BYTE_BUDGET,
               "estimated bytes exceed the table byte budget",
               f" ({rows} rows at {TABLE_BYTES_PER_ROW} bytes each)")

    counts, log_mult = _compositions.get(n, d)
    r_levels = r.tolist()
    # weights[j] = (ln r_j, eps_j) as a column, ln 0 taken as 0
    weights = np.array([[math.log(x) if x > 0.0 else 0.0 for x in r_levels],
                        battery.energies]).T[:, :, None]
    sums = counts[0] * weights[0]
    for k, w in zip(counts[1:], weights[1:]):
        sums += k * w
    for k, x in zip(counts, r_levels):
        if x == 0.0:
            sums[0, k > 0] = -np.inf
    sums.flags.writeable = False
    log_prob, total_energy = sums
    return WeightedLevelTable(n=n, dim=d, log_prob=log_prob,
                              energy=total_energy, log_mult=log_mult)


def _sort_order(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending order of key, and key in that order; tied keys keep their
    table order.

    Without ties the permutation is unique, so the plain argsort is taken;
    only tied keys need the slower stable sort, which keeps the result a
    function of the table alone."""
    order = key.argsort()
    sorted_key = key[order]
    if (sorted_key[1:] == sorted_key[:-1]).any():
        # gathered again so that 0.0 and -0.0, which tie, keep their bits
        order = key.argsort(kind="stable")
        sorted_key = key[order]
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
    linearly, i.e. it holds no -inf and spans at most LADDER_LINEAR_SPAN."""
    top = blocks.max(axis=1)
    low = blocks.min(axis=1)
    return top, (low > -np.inf) & (low >= top - LADDER_LINEAR_SPAN)


def _log_ladder(log_counts: np.ndarray) -> np.ndarray:
    """ln of the cumulative counts, with ln 0 = -inf prepended.

    Fewer than LADDER_BLOCK counts are accumulated by np.logaddexp.accumulate.
    A longer ladder is cut into blocks of LADDER_BLOCK rows, each summed
    linearly: S = cumsum(exp(x - top)), top the block's largest entry.
    The carry c, ln of the counts before the block, is a
    np.logaddexp.accumulate over the block totals top + ln S[-1], and the
    block's ladder is s + ln(S e^(top - s) + e^(c - s)), s = max(top, c).
    A block that holds -inf or spans more than LADDER_LINEAR_SPAN could
    start with counts below the normal float range; it is accumulated in
    logs from c instead. No row-sized array is made besides the ladder.
    """
    ladder = np.empty(log_counts.size + 1)
    ladder[0] = -np.inf
    if log_counts.size < LADDER_BLOCK:
        np.logaddexp.accumulate(log_counts, out=ladder[1:])
        return ladder
    parts = list(zip(_ladder_blocks(log_counts), _ladder_blocks(ladder[1:])))
    shifts, linears, totals = [], [], []
    for x, out in parts:
        top, linear = _linear_blocks(x)
        # a block of -inf alone sums to 0 whatever its shift
        top[top == -np.inf] = 0.0
        np.subtract(x, top[:, None], out=out)
        np.exp(out, out=out)
        np.cumsum(out, axis=1, out=out)
        last = out[:, -1]
        totals.append(top + np.log(last, out=np.full(last.size, -np.inf),
                                   where=last > 0.0))
        shifts.append(top)
        linears.append(linear)
    totals = np.concatenate(totals)
    carries = np.empty(totals.size)
    carries[0] = -np.inf
    np.logaddexp.accumulate(totals[:-1], out=carries[1:])
    start = 0
    for (x, out), top, linear in zip(parts, shifts, linears):
        carry = carries[start:start + len(out)]
        start += len(out)
        s = np.maximum(top, carry)
        out *= np.exp(top - s)[:, None]
        out += np.exp(carry - s)[:, None]
        log_rows = (~linear).nonzero()[0]
        out[log_rows] = 1.0
        np.log(out, out=out)
        out += s[:, None]
        for b in log_rows:
            row = out[b]
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


def passive_energy_per_copy(table: WeightedLevelTable) -> float:
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
    """
    lp, en, lm, n = table.log_prob, table.energy, table.log_mult, table.n
    p_idx = (lp != -np.inf).nonzero()[0]
    if p_idx.size == 0:
        raise ValidationError("table has no nonzero-probability entries")
    # probability side: log_prob descending; energy side: all levels,
    # energy ascending
    p_order, neg_lp = _sort_order(-lp[p_idx])
    e_order, energy = _sort_order(en)

    lm_p = lm[p_idx[p_order]]
    P = _log_ladder(lm_p)
    P_lo, P_hi = P[:-1], P[1:]
    lm_e = lm[e_order]
    excess = energy - energy[0]
    Q = _log_ladder(lm_e)
    # ln(count * excess) per energy row; -inf on the ground row
    lm_e += np.log(excess, out=np.full(excess.size, -np.inf),
                   where=excess > 0.0)
    F = _log_ladder(lm_e)

    # energy row j holds the counts (Q[j], Q[j + 1]]; ladder point P_i
    # falls in row g_at[i] (row 0 for P_0 = -inf), clamped so an ulp of
    # overshoot stays in the last row; interval i ends in row g = g_at[i+1]
    g_at = np.minimum(Q[1:].searchsorted(P), energy.size - 1)
    g = g_at[1:]
    q_below = Q[g]
    # A[i] = F(P_i) / P_i, the mean excess energy over [0, P_i)
    A = np.empty(P.size)
    A[0] = 0.0
    A[1:] = np.exp(F[g] - P_hi) - np.expm1(q_below - P_hi) * excess[g]
    # width / P_i; an interval crosses an energy boundary iff one lies
    # strictly above its start
    rel_width = -np.expm1(P_lo - P_hi)
    cross = (q_below > P_lo).nonzero()[0]
    a_lo, a_hi, rw = A[cross], A[cross + 1], rel_width[cross]
    mean_cross = energy[0] + (a_lo + (a_hi - a_lo) / rw)
    mean = energy[g]
    mean[cross] = mean_cross

    # neg_lp = -log_prob, so these are the sums log_prob + ln count
    mass = np.exp(lm_p - neg_lp)
    row_mass = float(mass.sum())
    ladder_mass = float(np.dot(np.exp(P_hi - neg_lp), rel_width))
    # worst-case ladder rounding, relative: a log step rounds ln count by
    # eps * ln count, and so does a linear block's x - max, as counts are
    # >= 1 and |x - max| <= ln total; rows such steps, or rows additions
    # of a linear running sum, stay within rows * eps * (1 + ln total)
    slack = p_idx.size * _EPS * (1.0 + float(P_hi[-1]))
    if not abs(ladder_mass - row_mass) <= slack * row_mass:
        raise NoConvergenceError(
            f"passive merge lost mass: ladder {ladder_mass!r} vs rows "
            f"{row_mass!r} over {p_idx.size} rows (n={n})")
    # a crossing interval runs from row g_at[i] to row g_at[i + 1]; the
    # ladder errors in A and the width move its mean by a few times
    # slack * scale / rel_width
    stray = np.maximum(energy[g_at[cross]] - mean_cross,
                       mean_cross - energy[g[cross]])
    scale = abs(float(energy[0])) + abs(float(energy[-1]))
    if not (stray * rw <= 8.0 * slack * scale).all():
        raise NoConvergenceError(
            f"passive merge: an interval mean lies outside its energy rows "
            f"over {p_idx.size} rows (n={n})")
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
    composition cap or the table byte budget is hit before n_max, raises
    CapExceededError carrying the largest feasible n and the partial curve.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    spectrum = state.spectrum_descending
    initial = energy(state, battery)
    asymptote = match_entropy(battery, entropy_target(state, battery)).gibbs_energy
    e: dict[int, float] = {}
    for n in range(1, n_max + 1):
        try:
            table = build_level_table(spectrum, battery, n)
        except CapExceededError as exc:
            partial = EnsembleCurve(passive_energy=e, asymptote=asymptote,
                                    initial_energy=initial)
            raise CapExceededError(
                f"curve stopped at n={n}: {exc}", required=exc.required,
                cap=exc.cap, largest_feasible_n=n - 1, partial=partial) from exc
        e[n] = passive_energy_per_copy(table)
    return EnsembleCurve(passive_energy=e, asymptote=asymptote,
                         initial_energy=initial)


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
