"""Dense complex linear algebra for small Hermitian problems.

Self-contained substrate: validation, a cyclic Jacobi eigensolver for
Hermitian matrices, and the matrix exponential exp(-i t A) built on it.
No LAPACK on this path; intended for dimensions up to a few hundred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, NoConvergenceError, NotHermitianError,
                     ValidationError)

HERMITIAN_TOL = 1e-10
JACOBI_MAX_SWEEPS = 100


def as_square_matrix(M) -> np.ndarray:
    """Coerce to a d x d complex array, rejecting anything else."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    return A


def is_hermitian(M) -> bool:
    """True iff max_ij |M_ij - conj(M_ji)| <= HERMITIAN_TOL."""
    A = as_square_matrix(M)
    return float(np.max(np.abs(A - A.conj().T))) <= HERMITIAN_TOL


def max_offdiagonal(A: np.ndarray) -> float:
    """Largest off-diagonal magnitude; 0.0 for a 1 x 1 matrix."""
    if A.shape[0] < 2:
        return 0.0
    mask = ~np.eye(A.shape[0], dtype=bool)
    return float(np.max(np.abs(A[mask])))


def unitarity_defect(U: np.ndarray) -> float:
    """max_ij |(U^dag U - I)_ij|; nan or inf, without a warning, when U
    has a non-finite entry."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))


@dataclass(frozen=True, eq=False)
class HermitianEig:
    """Eigendecomposition M = Q diag(w) Q^dag with w sorted ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(M) -> HermitianEig:
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Each rotation zeroes one off-diagonal pair with a unitary plane
    rotation whose phase absorbs arg(A[p,q]); sweeps repeat until the
    largest off-diagonal magnitude falls below the working threshold.
    Deterministic: identical input bits give identical output bits.

    Raises NotHermitianError if the input fails is_hermitian and
    NoConvergenceError if JACOBI_MAX_SWEEPS cyclic sweeps do not converge.
    """
    A = as_square_matrix(M)
    if not is_hermitian(A):
        raise NotHermitianError(
            f"matrix deviates from Hermitian by more than tol={HERMITIAN_TOL}")
    d = A.shape[0]
    # symmetrize roundoff-level asymmetry before iterating
    A = (A + A.conj().T) / 2.0
    V = np.eye(d, dtype=complex)
    stop = 1e-14 * float(np.max(np.abs(A)))
    skip = 0.1 * stop

    for _ in range(JACOBI_MAX_SWEEPS):
        if max_offdiagonal(A) <= stop:
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
        if max_offdiagonal(A) > stop:
            raise NoConvergenceError(
                f"Jacobi sweep budget ({JACOBI_MAX_SWEEPS}) exhausted; "
                f"residual off-diagonal {max_offdiagonal(A):.3e}")

    w = np.diag(A).real.copy()
    order = np.argsort(w, kind="stable")
    return HermitianEig(w[order], V[:, order])


def expm_hermitian_generator(A, t: float) -> np.ndarray:
    """exp(-i t A) for Hermitian A, via Q diag(exp(-i t w)) Q^dag.

    Raises ValidationError if some t * w overflows the float range."""
    eig = eig_hermitian(A)
    with np.errstate(over="ignore"):
        tw = t * eig.eigenvalues
    if not np.all(np.isfinite(tw)):
        raise ValidationError(f"t={t!r} times an eigenvalue overflows")
    phases = np.exp(-1j * tw)
    Q = eig.eigenvectors
    return (Q * phases) @ Q.conj().T

