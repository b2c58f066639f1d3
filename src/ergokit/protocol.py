"""Work-extraction protocols: piecewise-constant controls, idealized
unitary quenches, and product-vs-entangling comparisons.

Piecewise-constant controls make the time-ordered exponential exact: the
full propagator is the ordered product of segment exponentials
exp(-i dt_k (H + V_k)), later segments acting on the left. General V(t)
can be approximated by refining the segmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .battery import BatterySpec, QuantumState, energy, ergotropy
from .errors import (DimensionMismatchError, NotHermitianError,
                     NotUnitaryError, ValidationError)
from .ensemble import build_level_table, passive_energy_per_copy

UNITARY_TOL = 1e-8


def _energy_vector(battery) -> np.ndarray:
    """Accept a BatterySpec or a raw energy vector (e.g. the diagonal of a
    sum Hamiltonian for n-copy runs, which is degenerate)."""
    if isinstance(battery, BatterySpec):
        return battery.energies
    e = np.asarray(battery, dtype=float)
    if e.ndim != 1 or e.size < 1 or not np.all(np.isfinite(e)):
        raise ValidationError(f"invalid energy vector of shape {e.shape}")
    return e


@dataclass(frozen=True, eq=False)
class ControlSchedule:
    """Ordered piecewise-constant control segments (duration, V)."""

    segments: tuple[tuple[float, np.ndarray], ...]

    @classmethod
    def from_pairs(cls, pairs, tol: float = linalg.HERMITIAN_TOL) -> "ControlSchedule":
        segments = []
        for i, (duration, control) in enumerate(pairs):
            duration = float(duration)
            if not duration > 0:
                raise ValidationError(
                    f"segment {i}: duration must be > 0, got {duration!r}")
            V = np.array(linalg.as_square_matrix(control))
            if not linalg.is_hermitian(V, tol):
                raise NotHermitianError(f"segment {i}: control is not Hermitian")
            V.flags.writeable = False
            segments.append((duration, V))
        return cls(segments=tuple(segments))

    @property
    def total_duration(self) -> float:
        return sum(dt for dt, _ in self.segments)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    final_state: QuantumState
    total_unitary: np.ndarray
    work: float


def _finish(state: QuantumState, energies: np.ndarray, U: np.ndarray) -> ProtocolResult:
    if state.is_diagonal_form:
        rho = np.diag(state.populations.astype(complex))
    else:
        rho = state.matrix
    rho_final = U @ rho @ U.conj().T
    rho_final = (rho_final + rho_final.conj().T) / 2.0
    # unitary conjugation preserves the spectrum; skip the O(d^3) recheck
    final_state = QuantumState.full(rho_final, check_spectrum=False)
    e_before = float(np.dot(state.diagonal_populations(), energies))
    e_after = float(np.dot(final_state.diagonal_populations(), energies))
    return ProtocolResult(final_state=final_state, total_unitary=U,
                          work=e_before - e_after)


def evolve(state: QuantumState, battery, schedule: ControlSchedule) -> ProtocolResult:
    """Propagate through the schedule and report the extracted work
    tr(rho H) - tr(rho(tau) H)."""
    energies = _energy_vector(battery)
    d = energies.size
    if state.dim != d:
        raise DimensionMismatchError(
            f"state dimension {state.dim} != battery dimension {d}")
    H = np.diag(energies.astype(complex))
    U = np.eye(d, dtype=complex)
    for dt, V in schedule.segments:
        if V.shape[0] != d:
            raise DimensionMismatchError(
                f"control dimension {V.shape[0]} != battery dimension {d}")
        U = linalg.expm_hermitian_generator(H + V, dt) @ U
    return _finish(state, energies, U)


def apply_unitary(state: QuantumState, battery, U) -> ProtocolResult:
    """Idealized quench rho -> U rho U^dag; protocol optimization reduces
    to optimization over such unitaries."""
    energies = _energy_vector(battery)
    U = linalg.as_square_matrix(U)
    if U.shape[0] != energies.size or state.dim != energies.size:
        raise DimensionMismatchError(
            f"dimensions disagree: state {state.dim}, battery {energies.size}, "
            f"unitary {U.shape[0]}")
    defect = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
    if defect > UNITARY_TOL:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {UNITARY_TOL}")
    return _finish(state, energies, U)


def best_product_work(state: QuantumState, battery: BatterySpec, n: int) -> float:
    """Maximal work from product unitaries on n copies: n times the
    single-copy ergotropy. Per-factor optimization is exact for the sum
    Hamiltonian, so no numerical search is involved."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return n * ergotropy(state, battery)


def entangling_advantage(state: QuantumState, battery: BatterySpec, n: int,
                         cap: int | None = None) -> float:
    """Excess of the best global n-copy extraction over the best product
    one: n * w_max(n) - n * w_max(1) >= 0. Needs only the n-copy table,
    not the curve up to n."""
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    table = build_level_table(state.spectrum_descending, battery, n, cap=cap)
    work = energy(state, battery) - passive_energy_per_copy(table)
    return n * work - best_product_work(state, battery, n)
