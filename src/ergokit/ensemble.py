"""Exact per-copy passive energies for n independent battery copies.

The spectrum of the n-fold product state and of the sum Hamiltonian both
depend on a configuration |i_1 ... i_n> only through its type class: the
composition (k_1, ..., k_d) counting how often each level occurs. One
table entry per composition, carrying a log-probability, a total energy,
and a log-multinomial multiplicity, replaces the d^n level expansion with
C(n+d-1, d-1) rows. Probabilities and multiplicities stay in the log
domain; only ratios bounded by the total mass are ever exponentiated.
"""

from __future__ import annotations

import functools
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
BRUTE_FORCE_CAP = 10_000_000
DIAGONAL_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


def composition_cap(cap: int | None = None) -> int:
    """Enumeration cap: explicit argument, else the environment override,
    else the built-in default."""
    if cap is not None:
        return int(cap)
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


@functools.lru_cache(maxsize=128)
def _composition_matrix(n: int, d: int) -> np.ndarray:
    """All compositions of n into d parts, one row each, lexicographic in
    (k_1, ..., k_d)."""
    # blocks[m]: compositions of m into j parts. Those into j parts are
    # k_1 = 0..m, each followed by the (j-1)-part compositions of m - k_1;
    # m descends so that blocks[m - k_1] still holds j - 1 parts.
    blocks = [np.array([[m]], dtype=np.int64) for m in range(n + 1)]
    for j in range(2, d + 1):
        # the last pass needs only m = n
        for m in range(n, -1, -1) if j < d else (n,):
            tails = blocks[m::-1]
            sizes = [len(t) for t in tails]
            K = np.empty((sum(sizes), j), dtype=np.int64)
            K[:, 0] = np.repeat(np.arange(m + 1, dtype=np.int64), sizes)
            np.concatenate(tails, out=K[:, 1:])
            blocks[m] = K
    K = blocks[n]
    K.flags.writeable = False
    return K


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


def build_level_table(spectrum, battery: BatterySpec, n: int,
                      cap: int | None = None) -> WeightedLevelTable:
    """One entry per composition of n into d parts."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    d = battery.dim
    r = _validated_spectrum(spectrum, d)
    _check_cap(composition_count(n, d), composition_cap(cap),
               "compositions exceed the cap",
               f" (override with {COMPOSITION_CAP_ENV} or the cap argument)")

    K = _composition_matrix(n, d)
    zero = r == 0.0
    log_r = np.where(zero, 0.0, np.log(np.where(zero, 1.0, r)))
    log_prob = K @ log_r
    if np.any(zero):
        log_prob[(K[:, zero] > 0).any(axis=1)] = -np.inf
    total_energy = K @ battery.energies
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_mult = log_fact[n] - log_fact[K].sum(axis=1)
    for arr in (log_prob, total_energy, log_mult):
        arr.flags.writeable = False
    return WeightedLevelTable(n=n, dim=d, log_prob=log_prob,
                              energy=total_energy, log_mult=log_mult)


def _sort_order(key: np.ndarray) -> np.ndarray:
    """Ascending order of key; tied keys keep their table order.

    Without ties the permutation is unique, so the plain argsort is taken;
    only tied keys need the slower stable sort, which keeps the result a
    function of the table alone."""
    order = key.argsort()
    sorted_key = key[order]
    if (sorted_key[1:] == sorted_key[:-1]).any():
        return key.argsort(kind="stable")
    return order


def _log_ladder(log_counts: np.ndarray) -> np.ndarray:
    """ln of the cumulative counts, with ln 0 = -inf prepended."""
    ladder = np.empty(log_counts.size + 1)
    ladder[0] = -np.inf
    np.logaddexp.accumulate(log_counts, out=ladder[1:])
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

    Both ladders and F are kept as logarithms (np.logaddexp.accumulate),
    so no multiplicity is ever rescaled out of range: counts up to d^n
    with n in the thousands lose nothing to underflow. Nothing that is
    exponentiated exceeds the total mass or an energy.

    Two checks, each allowing the worst-case rounding of the log ladders
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
    p_order = p_idx[_sort_order(-lp[p_idx])]
    e_order = _sort_order(en)

    lp_p, lm_p = lp[p_order], lm[p_order]
    P = _log_ladder(lm_p)
    P_lo, P_hi = P[:-1], P[1:]
    energy, lm_e = en[e_order], lm[e_order]
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

    mass = np.exp(lp_p + lm_p)
    row_mass = float(mass.sum())
    ladder_mass = float(np.dot(np.exp(lp_p + P_hi), rel_width))
    # a log ladder holds each count to ulp(ln count) ~ eps * ln(count)
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


def brute_force_oracle(spectrum, battery: BatterySpec, n: int,
                       cap: int = BRUTE_FORCE_CAP) -> float:
    """Reference value by explicit d^n expansion: materialize every
    product probability and sum energy, sort, dot. Independent of the
    composition table and of the merge above."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    r = _validated_spectrum(spectrum, battery.dim)
    _check_cap(battery.dim ** n, cap, "levels exceed the brute-force cap")
    probs = np.sort(product_populations(r, n, cap=cap))[::-1]
    energies = np.sort(product_energies(battery, n, cap=cap))
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


def curve(state: QuantumState, battery: BatterySpec, n_max: int,
          cap: int | None = None, match_tol: float = 1e-10) -> EnsembleCurve:
    """Passive energy per copy for n = 1..n_max, with the entropy-matched
    Gibbs energy as asymptote.

    e(n) depends only on the spectrum of rho (conjugation-invariant);
    w(n) = tr(rho H) - e(n) uses the energy of the supplied state. If the
    composition cap is hit before n_max, raises CapExceededError carrying
    the largest feasible n and the partial curve.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    spectrum = state.spectrum_descending
    initial = energy(state, battery)
    asymptote = match_entropy(battery, entropy_target(state, battery),
                              tol=match_tol).gibbs_energy
    e: dict[int, float] = {}
    for n in range(1, n_max + 1):
        try:
            table = build_level_table(spectrum, battery, n, cap=cap)
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
                             n_max: int, tol: float = 1e-9,
                             cap: int | None = None) -> CompletePassivityReport:
    """Check whether per-copy work stays below tol * n for all n <= n_max.

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

    work = curve(state, battery, n_max, cap=cap).work
    first_active = next((n for n, w in work.items() if w > tol * n), None)

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


def product_energies(battery: BatterySpec, n: int,
                     cap: int = BRUTE_FORCE_CAP) -> np.ndarray:
    """Diagonal of the sum Hamiltonian on the n-copy product basis."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    _check_cap(battery.dim ** n, cap, "levels exceed the cap")
    energies = np.array([0.0])
    for _ in range(n):
        energies = np.add.outer(energies, battery.energies).ravel()
    return energies


def product_populations(populations, n: int,
                        cap: int = BRUTE_FORCE_CAP) -> np.ndarray:
    """Populations of the n-fold product of a diagonal state."""
    p = np.asarray(populations, dtype=float)
    _check_cap(p.size ** n, cap, "levels exceed the cap")
    out = np.array([1.0])
    for _ in range(n):
        out = np.multiply.outer(out, p).ravel()
    return out
