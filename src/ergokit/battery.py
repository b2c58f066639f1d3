"""Battery model, passivity, passive states, and single-copy ergotropy.

Conventions: hbar = k_B = 1. A battery is a finite d-level system with a
non-degenerate Hamiltonian; a state is its complex density matrix in the
energy eigenbasis, built from populations or from a full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, NotHermitianError, ValidationError

# Published spectra are often rounded to a few decimals and miss unit
# trace by ~1e-3; such states are accepted verbatim (never silently
# renormalized) so that reported figures reproduce exactly. Anything
# further from unit trace is rejected as malformed.
TRACE_TOL = 1e-2
EIGENVALUE_FLOOR = -1e-12
PASSIVITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BatterySpec:
    """Hamiltonian spectrum: strictly increasing energies, d >= 2."""

    energies: np.ndarray

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValidationError(
                f"battery needs at least 2 energy levels, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValidationError("battery energies must be finite")
        if not np.all(e[1:] > e[:-1]):
            raise ValidationError(
                "battery energies must be strictly increasing "
                "(degenerate spectra are rejected; perturb them explicitly)")
        e.flags.writeable = False
        object.__setattr__(self, "energies", e)

    @property
    def dim(self) -> int:
        return self.energies.size


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Density matrix in the energy eigenbasis, stored read-only.

    Construct via QuantumState.diagonal (populations, stored as diag(p))
    or QuantumState.full; both validate trace, Hermiticity, and spectral
    positivity. Eigenvalues in [-1e-12, 0) are treated as roundoff:
    clamped to zero with the given trace preserved. Anything more
    negative is rejected.
    """

    matrix: np.ndarray

    @classmethod
    def diagonal(cls, populations) -> "QuantumState":
        p = np.array(populations, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValidationError(f"populations must be a vector, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValidationError("populations must be finite")
        if np.min(p) < EIGENVALUE_FLOOR:
            raise ValidationError(
                f"population {np.min(p):.3e} below the roundoff floor {EIGENVALUE_FLOOR}")
        tr = float(np.sum(p))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"populations must sum to 1 within {TRACE_TOL}; got sum {tr!r}")
        m = np.diag(p.astype(complex))
        m.flags.writeable = False
        return cls(matrix=m)

    @classmethod
    def full(cls, matrix) -> "QuantumState":
        m = np.array(linalg.as_square_matrix(matrix))
        if not np.all(np.isfinite(m)):
            raise ValidationError("density matrix entries must be finite")
        if not linalg.is_hermitian(m):
            raise NotHermitianError("density matrix is not Hermitian within 1e-10")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"density matrix trace must be 1 within {TRACE_TOL}; got {tr!r}")
        w = linalg.eig_hermitian(m, vectors=False).eigenvalues
        if float(np.min(w)) < EIGENVALUE_FLOOR:
            raise ValidationError(
                f"eigenvalue {np.min(w):.3e} below the roundoff floor "
                f"{EIGENVALUE_FLOOR}; not a density matrix")
        m.flags.writeable = False
        return cls(matrix=m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal_populations(self) -> np.ndarray:
        """Diagonal of rho in the energy eigenbasis (real part)."""
        return np.diag(self.matrix).real

    def max_offdiagonal(self) -> float:
        """Largest off-diagonal magnitude in the energy eigenbasis."""
        return linalg.max_offdiagonal(self.matrix)

    @cached_property
    def spectrum_descending(self) -> np.ndarray:
        """Eigenvalues sorted descending, with roundoff negatives clamped
        to zero and the spectrum rescaled to preserve the given trace.

        A matrix whose off-diagonal entries are all exactly 0 skips
        eig_hermitian, whose Jacobi loop would rotate nothing: its
        eigenvalues are the diagonal, symmetrised as there (which turns
        -0.0 into +0.0) and sorted ascending, the same bits."""
        if self.max_offdiagonal() > 0.0:
            w = linalg.eig_hermitian(self.matrix, vectors=False).eigenvalues
        else:
            levels = self.matrix.diagonal()
            w = np.sort(((levels + levels.conj()) / 2.0).real, kind="stable")
        if float(np.min(w)) < EIGENVALUE_FLOOR:
            raise ValidationError(
                f"eigenvalue {np.min(w):.3e} below the roundoff floor {EIGENVALUE_FLOOR}")
        trace = float(np.sum(w))
        w = np.clip(w, 0.0, None)
        w *= trace / np.sum(w)
        w = np.sort(w, kind="stable")[::-1]
        w.flags.writeable = False
        return w


@dataclass(frozen=True, eq=False)
class ErgotropyReport:
    """Energy bookkeeping of the optimal unitary extraction."""

    initial_energy: float
    passive_energy: float
    ergotropy: float
    passive_populations: np.ndarray = field(repr=False)


def _check_dims(state: QuantumState, battery: BatterySpec) -> None:
    if state.dim != battery.dim:
        raise DimensionMismatchError(
            f"state dimension {state.dim} != battery dimension {battery.dim}")


def energy(state: QuantumState, battery: BatterySpec) -> float:
    """tr(rho H) = sum_j eps_j <j|rho|j>."""
    _check_dims(state, battery)
    return float(np.dot(state.diagonal_populations(), battery.energies))


def is_passive(state: QuantumState, battery: BatterySpec) -> bool:
    """Passive iff rho commutes with H and populations are non-increasing
    in energy, both within PASSIVITY_TOL."""
    _check_dims(state, battery)
    if state.max_offdiagonal() > PASSIVITY_TOL:
        return False
    s = state.diagonal_populations()
    return bool(np.all(s[1:] <= s[:-1] + PASSIVITY_TOL))


def passive_state(state: QuantumState, battery: BatterySpec) -> ErgotropyReport:
    """Sort the spectrum of rho against the energy ladder and report the
    passive energy and the extractable surplus."""
    _check_dims(state, battery)
    r = state.spectrum_descending
    e_passive = float(np.dot(r, battery.energies))
    e_initial = energy(state, battery)
    return ErgotropyReport(
        initial_energy=e_initial,
        passive_energy=e_passive,
        ergotropy=e_initial - e_passive,
        passive_populations=r,
    )


def optimal_unitary(state: QuantumState, battery: BatterySpec) -> np.ndarray:
    """Unitary U with U rho U^dag diagonal, populations non-increasing.

    Built as U = sum_j |j><psi_j| where psi_j is the eigenvector of rho
    for the j-th largest eigenvalue. Under spectral ties any orthonormal
    choice gives the same passive energy; the stable eigenvalue sort
    fixes one deterministically: exact ties keep the order in which
    eig_hermitian returns them (level order for a diagonal state).
    """
    _check_dims(state, battery)
    eig = linalg.eig_hermitian(state.matrix)
    order = np.argsort(-eig.eigenvalues, kind="stable")
    return eig.eigenvectors[:, order].conj().T


def ergotropy(state: QuantumState, battery: BatterySpec) -> float:
    """Maximal unitarily extractable work tr(rho H) - tr(sigma_rho H)."""
    return passive_state(state, battery).ergotropy
