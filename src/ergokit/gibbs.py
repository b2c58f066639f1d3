"""Gibbs states, von Neumann entropy, and the entropy-matched bound.

Entropy is measured in nats (k_B = 1), which keeps the free-energy
inequality unit-consistent with the inverse temperature. The map
beta -> S(omega_beta) is strictly decreasing from ln d onto (0, ln d],
so matching an entropy target reduces to bracketing plus bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .battery import BatterySpec, QuantumState, energy
from .errors import NoConvergenceError, TargetOutOfRangeError

MATCH_TOL = 1e-10
# beta cap stands in for beta = infinity at zero-entropy targets: excited
# populations at the cap are below this and the energy equals eps_1 to 1e-12
ZERO_ENTROPY_POP_TOL = 1e-15
RANGE_SLACK = 1e-12


def entropy(state: QuantumState) -> float:
    """von Neumann entropy -sum lam ln lam in nats, with 0 ln 0 := 0."""
    return entropy_of_populations(state.spectrum_descending)


def entropy_of_populations(populations: np.ndarray) -> float:
    p = np.asarray(populations, dtype=float)
    nz = p[p > 0.0]
    return max(0.0, float(-np.dot(nz, np.log(nz))))


@dataclass(frozen=True, eq=False)
class GibbsState:
    """Thermal occupations exp(-beta(eps_j - eps_1)) / Z at fixed beta.

    partition_function is the ground-shifted Z = sum_j exp(-beta(eps_j -
    eps_1)); the unshifted one is exp(-beta * energy_shift) * Z.
    """

    beta: float
    populations: np.ndarray = field(repr=False)
    partition_function: float
    energy_shift: float

    def to_state(self) -> QuantumState:
        return QuantumState.diagonal(self.populations)


def gibbs_state(battery: BatterySpec, beta: float) -> GibbsState:
    """Canonical Gibbs occupations at inverse temperature beta >= 0."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    shifted = battery.energies - battery.energies[0]
    weights = np.exp(-beta * shifted)
    z = float(np.sum(weights))
    pops = weights / z
    pops.flags.writeable = False
    return GibbsState(beta=beta, populations=pops, partition_function=z,
                      energy_shift=float(battery.energies[0]))


def gibbs_energy(battery: BatterySpec, beta: float) -> float:
    return float(np.dot(gibbs_state(battery, beta).populations, battery.energies))


def gibbs_entropy(battery: BatterySpec, beta: float) -> float:
    return entropy_of_populations(gibbs_state(battery, beta).populations)


@dataclass(frozen=True, eq=False)
class GibbsMatch:
    """Result of solving S(omega_beta) = target over beta >= 0."""

    beta: float
    populations: np.ndarray = field(repr=False)
    partition_function: float
    gibbs_energy: float
    gibbs_entropy: float
    target_entropy: float
    saturated: bool = False


def beta_cap(battery: BatterySpec) -> float:
    """Largest beta worth representing: beyond it all excited populations
    are below ZERO_ENTROPY_POP_TOL and the Gibbs energy has converged to
    the ground energy."""
    gap = float(battery.energies[1] - battery.energies[0])
    return math.log(1.0 / ZERO_ENTROPY_POP_TOL) / gap


def match_entropy(battery: BatterySpec, target_entropy: float,
                  tol: float = MATCH_TOL) -> GibbsMatch:
    """Find beta >= 0 with |S(omega_beta) - target_entropy| <= tol.

    Bisection on the strictly monotone entropy map; the upper bracket is
    found by doubling. Targets at ln d give beta = 0; targets at or below
    tol saturate at beta_cap (the beta = infinity stand-in) and are
    flagged as such.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    d = battery.dim
    ln_d = math.log(d)
    if not (-RANGE_SLACK <= target_entropy <= ln_d + RANGE_SLACK):
        raise TargetOutOfRangeError(
            f"target entropy {target_entropy!r} outside [0, ln {d} = {ln_d:.6f}]")

    def build(beta: float, saturated: bool = False) -> GibbsMatch:
        gs = gibbs_state(battery, beta)
        return GibbsMatch(
            beta=beta,
            populations=gs.populations,
            partition_function=gs.partition_function,
            gibbs_energy=float(np.dot(gs.populations, battery.energies)),
            gibbs_entropy=entropy_of_populations(gs.populations),
            target_entropy=target_entropy,
            saturated=saturated,
        )

    if target_entropy >= ln_d:
        return build(0.0)
    cap = beta_cap(battery)
    if target_entropy <= tol:
        return build(cap, saturated=True)

    lo = 0.0
    hi = 1.0
    while gibbs_entropy(battery, hi) > target_entropy:
        hi *= 2.0
        if hi >= cap:
            if gibbs_entropy(battery, cap) > target_entropy:
                # target below what is resolvable: treat as saturated
                return build(cap, saturated=True)
            hi = cap
            break

    # bisect the bracket down to float resolution: the entropy map is
    # exponentially flat at large beta, so stopping on the residual alone
    # would leave beta orders of magnitude less precise than tol
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        if mid == lo or mid == hi:
            break
        if gibbs_entropy(battery, mid) > target_entropy:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    result = build(mid)
    if abs(result.gibbs_entropy - target_entropy) <= tol:
        return result
    raise NoConvergenceError(
        f"entropy bisection reached float resolution at beta={mid!r} with "
        f"|S - target| = {abs(result.gibbs_entropy - target_entropy):.3e} > "
        f"tol={tol}")


def entropy_target(state: QuantumState, battery: BatterySpec) -> float:
    """S(rho) capped at ln d: the entropy a Gibbs state is matched to. A
    state with trace up to 1 + TRACE_TOL can exceed ln d; it matches
    beta = 0 and is never renormalised."""
    return min(entropy(state), math.log(battery.dim))


def thermodynamic_bound(state: QuantumState, battery: BatterySpec,
                        tol: float = MATCH_TOL) -> float:
    """tr(rho H) - tr(omega_betabar H): the free-energy upper bound on
    extractable work at the entropy-matched temperature."""
    match = match_entropy(battery, entropy_target(state, battery), tol=tol)
    return energy(state, battery) - match.gibbs_energy
