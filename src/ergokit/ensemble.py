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

from .battery import BatterySpec, QuantumState, energy
from .errors import CapExceededError, NotDiagonalError, ValidationError
from .gibbs import entropy, match_entropy

DEFAULT_COMPOSITION_CAP = 50_000_000
COMPOSITION_CAP_ENV = "ERGOKIT_MAX_COMPOSITIONS"
BRUTE_FORCE_CAP = 10_000_000
# same slack as state validation: rounded published spectra pass verbatim
SPECTRUM_SUM_TOL = 1e-2
DIAGONAL_TOL = 1e-10


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
    if abs(s - 1.0) > SPECTRUM_SUM_TOL:
        raise ValidationError(f"spectrum must sum to 1 within {SPECTRUM_SUM_TOL}, got {s!r}")
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


def passive_energy_per_copy(table: WeightedLevelTable) -> float:
    """(1/n) tr(sigma H) for the passive rearrangement of the n-copy
    product state, without expanding the d^n levels.

    Pairs the probability list (sorted descending, in groups of
    multiplicity) with the energy list (sorted ascending, same group
    sizes) by merging the two cumulative-count ladders; each merged
    segment holds one (probability, energy) pair. Equivalent to greedy
    two-pointer consumption of min(remaining group counts). Group counts
    are handled as exp(log_mult - max log_mult), so arbitrarily large
    multiplicities stay in range; groups more than ~1e308 times smaller
    than the largest underflow to zero width, which is far below any
    representable contribution.
    """
    lp, en, lm, n = table.log_prob, table.energy, table.log_mult, table.n
    shift = float(np.max(lm))
    counts = np.exp(lm - shift)

    finite = lp != -np.inf
    p_idx = np.flatnonzero(finite)
    if p_idx.size == 0:
        raise ValidationError("table has no nonzero-probability entries")
    # probability side: log_prob descending, ties broken by energy ascending
    p_order = p_idx[np.lexsort((en[p_idx], -lp[p_idx]))]
    # energy side: all levels, energy ascending, deterministic tie-break
    e_order = np.lexsort((lp, en))

    cum_p = np.cumsum(counts[p_order])
    cum_e = np.cumsum(counts[e_order])
    # in exact arithmetic the nonzero-probability count never exceeds the
    # level count; under roundoff the two ladders can differ by an ulp,
    # so the merge runs to the smaller end
    total = min(cum_p[-1], cum_e[-1])

    bounds = np.concatenate((cum_p, cum_e))
    bounds = np.unique(np.concatenate((bounds[bounds < total], [total])))
    starts = np.concatenate(([0.0], bounds[:-1]))
    widths = bounds - starts
    p_at = p_order[np.searchsorted(cum_p, starts, side="right")]
    e_at = e_order[np.searchsorted(cum_e, starts, side="right")]
    mass = np.exp(np.log(widths) + shift + lp[p_at])
    return float(np.dot(mass, en[e_at])) / n


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
    work: dict[int, float]
    asymptote: float
    initial_energy: float

    @property
    def n_values(self) -> list[int]:
        return sorted(self.passive_energy)


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
    asymptote = match_entropy(battery, entropy(state), tol=match_tol).gibbs_energy
    e: dict[int, float] = {}
    w: dict[int, float] = {}
    for n in range(1, n_max + 1):
        try:
            table = build_level_table(spectrum, battery, n, cap=cap)
        except CapExceededError as exc:
            partial = EnsembleCurve(passive_energy=e, work=w,
                                    asymptote=asymptote, initial_energy=initial)
            raise CapExceededError(
                f"curve stopped at n={n}: {exc}", required=exc.required,
                cap=exc.cap, largest_feasible_n=n - 1, partial=partial) from exc
        e[n] = passive_energy_per_copy(table)
        w[n] = initial - e[n]
    return EnsembleCurve(passive_energy=e, work=w,
                         asymptote=asymptote, initial_energy=initial)


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

    Requires a state diagonal in the energy basis. Also reports a direct
    Gibbs-form fit of ln(populations) against the energies: least-squares
    beta with RMS residual. A zero population is incompatible with any
    finite-beta Gibbs form, so the residual is infinite then, except for
    the pure ground state which is reported as the beta = infinity limit.
    """
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    if state.max_offdiagonal() > DIAGONAL_TOL:
        raise NotDiagonalError(
            f"state has off-diagonal weight {state.max_offdiagonal():.3e}; "
            "complete-passivity check needs a diagonal state")
    if state.dim != battery.dim:
        raise ValidationError(
            f"state dimension {state.dim} != battery dimension {battery.dim}")

    spectrum = state.spectrum_descending
    initial = energy(state, battery)
    work: dict[int, float] = {}
    first_active = None
    for n in range(1, n_max + 1):
        table = build_level_table(spectrum, battery, n, cap=cap)
        work[n] = initial - passive_energy_per_copy(table)
        if first_active is None and work[n] > tol * n:
            first_active = n

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
