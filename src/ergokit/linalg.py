"""Dense complex linear algebra for small Hermitian problems.

Self-contained substrate: validation, a cyclic Jacobi eigensolver for
Hermitian matrices, and the matrix exponential exp(-i t A) built on it.
No LAPACK on this path; intended for dimensions up to a few hundred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NotHermitianError

HERMITIAN_TOL = 1e-10
JACOBI_MAX_SWEEPS = 100


def as_square_matrix(M) -> np.ndarray:
    """Coerce to a d x d complex array, rejecting anything else."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    return A


def is_hermitian(M, tol: float = HERMITIAN_TOL) -> bool:
    """True iff max_ij |M_ij - conj(M_ji)| <= tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    A = as_square_matrix(M)
    return float(np.max(np.abs(A - A.conj().T))) <= tol


@dataclass(frozen=True, eq=False)
class HermitianEig:
    """Eigendecomposition M = Q diag(w) Q^dag with w sorted ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(M, tol: float = HERMITIAN_TOL,
                  max_sweeps: int = JACOBI_MAX_SWEEPS) -> HermitianEig:
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Each rotation zeroes one off-diagonal pair with a unitary plane
    rotation whose phase absorbs arg(A[p,q]); sweeps repeat until the
    largest off-diagonal magnitude falls below the working threshold.
    Deterministic: identical input bits give identical output bits.

    Raises NotHermitianError if the input fails is_hermitian(M, tol) and
    NoConvergenceError if max_sweeps cyclic sweeps do not converge.
    """
    A = as_square_matrix(M)
    if not is_hermitian(A, tol):
        raise NotHermitianError(
            f"matrix deviates from Hermitian by more than tol={tol}")
    d = A.shape[0]
    if d == 1:
        return HermitianEig(np.array([A[0, 0].real]),
                            np.eye(1, dtype=complex))

    # symmetrize roundoff-level asymmetry before iterating
    A = (A + A.conj().T) / 2.0
    V = np.eye(d, dtype=complex)
    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        return HermitianEig(np.zeros(d), V)
    stop = 1e-14 * scale
    skip = 0.1 * stop

    converged = False
    for _ in range(max_sweeps):
        off = _max_offdiag(A)
        if off <= stop:
            converged = True
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                m = abs(apq)
                if m <= skip:
                    continue
                phase = apq / m
                theta = 0.5 * math.atan2(2.0 * m, A[p, p].real - A[q, q].real)
                c = math.cos(theta)
                s = math.sin(theta)
                # columns: A <- A J with J the plane rotation on (p, q)
                col_p = A[:, p] * c + A[:, q] * (s * np.conj(phase))
                col_q = A[:, p] * (-s * phase) + A[:, q] * c
                A[:, p] = col_p
                A[:, q] = col_q
                # rows: A <- J^dag A
                row_p = A[p, :] * c + A[q, :] * (s * phase)
                row_q = A[p, :] * (-s * np.conj(phase)) + A[q, :] * c
                A[p, :] = row_p
                A[q, :] = row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                A[p, p] = A[p, p].real
                A[q, q] = A[q, q].real
                # accumulate eigenvectors: V <- V J
                v_p = V[:, p] * c + V[:, q] * (s * np.conj(phase))
                v_q = V[:, p] * (-s * phase) + V[:, q] * c
                V[:, p] = v_p
                V[:, q] = v_q
    else:
        converged = _max_offdiag(A) <= stop
    if not converged:
        raise NoConvergenceError(
            f"Jacobi sweep budget ({max_sweeps}) exhausted; "
            f"residual off-diagonal {_max_offdiag(A):.3e}")

    w = np.diag(A).real.copy()
    order = np.argsort(w, kind="stable")
    return HermitianEig(w[order], V[:, order])


def _max_offdiag(A: np.ndarray) -> float:
    mask = ~np.eye(A.shape[0], dtype=bool)
    return float(np.max(np.abs(A[mask])))


def expm_hermitian_generator(A, t: float, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """exp(-i t A) for Hermitian A, via Q diag(exp(-i t w)) Q^dag."""
    eig = eig_hermitian(A, tol=tol)
    phases = np.exp(-1j * t * eig.eigenvalues)
    Q = eig.eigenvectors
    return (Q * phases) @ Q.conj().T

