"""Dense complex linear algebra for small Hermitian problems.

Self-contained substrate: validation, a Jacobi eigensolver for Hermitian
matrices in the round-robin parallel ordering of Brent & Luk (SIAM J.
Sci. Stat. Comput. 6, 1985), rotating each pair by the inner angle
(|theta| <= pi/4) and forming eigenvectors only when asked
(vectors=False skips them), and exp(-i t A) by Taylor scaling and
squaring. No LAPACK on this path; the eigensolver uses no BLAS and the
exponential only matmul. Intended for dimensions up to a few hundred.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, NoConvergenceError, NotHermitianError,
                     ValidationError)

HERMITIAN_TOL = 1e-10
JACOBI_MAX_SWEEPS = 100
TAYLOR_DEGREE = 18  # truncation at ||B||_1 <= 1 below 1/19! < 1e-16


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
    """Eigendecomposition M = Q diag(w) Q^dag with w sorted ascending,
    the number of Jacobi sweeps it took and the largest off-diagonal
    magnitude left when they stopped. eigenvectors (Q) is None when
    eig_hermitian was called with vectors=False."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    sweeps: int
    residual: float


@functools.lru_cache(maxsize=128)
def _round_robin(d: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """One Brent-Luk sweep over range(d): the rounds of a round-robin
    tournament, d - 1 for even d and d for odd d (padded with a dummy
    index d whose pairs are dropped). Each step holds the disjoint pairs
    (P[j], Q[j]), P < Q, with PQ and QP their indices concatenated both
    ways; every pair p < q occurs in exactly one step."""
    m = d + d % 2
    # this start gives d = 3 the row-cyclic order (0, 1), (0, 2), (1, 2);
    # under the inner angle every order of those three pairs takes the
    # same mean sweep count (3.41 within 0.2 % on 20,000 Wishart matrices)
    ring = [0] + list(range(2, m)) + [1]
    steps = []
    for _ in range(m - 1):
        pairs = [sorted(pair) for pair in zip(ring[:m // 2], ring[::-1])
                 if d not in pair]
        P, Q = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        steps.append((P, Q, np.concatenate((P, Q)), np.concatenate((Q, P))))
        ring = ring[:1] + ring[2:] + ring[1:2]
    return tuple(steps)


def eig_hermitian(M, vectors: bool = True) -> HermitianEig:
    """Diagonalize a Hermitian matrix by complex Jacobi rotations in the
    round-robin parallel ordering of Brent & Luk (SIAM J. Sci. Stat.
    Comput. 6, 1985).

    Each rotation zeroes one off-diagonal pair (p, q) with a unitary
    plane rotation whose phase absorbs arg(A[p,q]), by the inner angle
    theta = atan2(copysign(2|a_pq|, a_pp - a_qq), |a_pp - a_qq|) / 2,
    |theta| <= pi/4 (Rutishauser, Numer. Math. 9, 1966; Golub & Van Loan,
    Sec. 8.5), which never swaps a_pp and a_qq; a step of
    _round_robin rotates its disjoint pairs at once, with elementwise
    numpy operations only. Sweeps repeat until the largest off-diagonal
    magnitude falls below the working threshold; a pair at a tenth of
    it or less gets the identity rotation, and every pair of a step is
    left exactly zero. Deterministic: identical input bits give
    identical output bits.

    With vectors=False only A is rotated and eigenvectors is None; the
    eigenvectors never feed back into A, so eigenvalues, sweeps and
    residual are bit-identical to the vectors=True call.

    Raises NotHermitianError if the input fails is_hermitian and
    NoConvergenceError if JACOBI_MAX_SWEEPS round-robin sweeps do not
    converge.
    """
    A = as_square_matrix(M)
    if not is_hermitian(A):
        raise NotHermitianError(
            f"matrix deviates from Hermitian by more than tol={HERMITIAN_TOL}")
    d = A.shape[0]
    # symmetrize roundoff-level asymmetry; stacked as [A; V] when vectors
    # are asked for, the columns of A and V rotate together
    W = (A + A.conj().T) / 2.0
    if vectors:
        W = np.concatenate((W, np.eye(d, dtype=complex)))
    A = W[:d]
    diag = A.reshape(-1)[::d + 1]
    levels = diag.real
    stop = 1e-14 * float(np.max(np.abs(A)))
    skip = 0.1 * stop

    for sweeps in range(JACOBI_MAX_SWEEPS + 1):
        residual = max_offdiagonal(A)
        if residual <= stop:
            break
        if sweeps == JACOBI_MAX_SWEEPS:
            raise NoConvergenceError(
                f"Jacobi sweep budget ({JACOBI_MAX_SWEEPS}) exhausted; "
                f"residual off-diagonal {residual:.3e}")
        for P, Q, PQ, QP in _round_robin(d):
            apq = A[P, Q]
            m = np.abs(apq)
            rotate = m > skip
            # the inner angle: atan2 of |a_pp - a_qq| keeps |theta| <= pi/4
            delta = levels[P] - levels[Q]
            theta = np.arctan2(np.copysign(m + m, delta), np.abs(delta),
                               out=np.zeros(m.shape), where=rotate)
            theta *= 0.5
            c = np.cos(theta)
            # J[p, p] = J[q, q] = c, J[q, p] = g, J[p, q] = -conj(g)
            g = np.sin(theta) * np.divide(apq.conj(), m, where=rotate,
                                          out=np.zeros(m.shape, dtype=complex))
            c = np.concatenate((c, c))
            g = np.concatenate((g, -g.conj()))
            # columns [A; V] <- [A; V] J, then rows A <- J^dag A
            W[:, PQ] = W[:, PQ] * c + W[:, QP] * g
            A[PQ] = A[PQ] * c[:, None] + A[QP] * g.conj()[:, None]
            A[PQ, QP] = 0.0
            diag.imag[...] = 0.0

    w = levels.copy()
    order = np.argsort(w, kind="stable")
    return HermitianEig(w[order], W[d:, order] if vectors else None, sweeps,
                        residual)


def expm_hermitian_generator(A, t: float) -> np.ndarray:
    """exp(-i t A) for Hermitian A by Taylor scaling and squaring (Moler &
    Van Loan, SIAM Rev. 45, 2003; Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 2009): B = -i t (A - mu I), mu = tr(A)/d, is halved s times
    to ||B||_1 <= 1, and its degree-TAYLOR_DEGREE Taylor polynomial is
    squared s times and scaled by exp(-i t mu). The unitarity defect passes
    protocol.UNITARY_TOL near t ||A - mu I||_1 = 1e8, so evolve rejects
    longer segments; a huge finite t gives, without a warning, a U that is
    far from unitary or not finite.

    Raises NotHermitianError if A fails is_hermitian, and ValidationError
    if t * ||A - mu I||_1 or t * mu is not finite."""
    A = as_square_matrix(A)
    if not is_hermitian(A):
        raise NotHermitianError(
            f"matrix deviates from Hermitian by more than tol={HERMITIAN_TOL}")
    I = np.eye(A.shape[0], dtype=complex)
    mu = A.trace().real / A.shape[0]
    A = (A + A.conj().T) / 2.0 - mu * I
    with np.errstate(over="ignore"):
        norm, tmu = abs(t) * np.abs(A).sum(axis=0).max(), t * mu
    if not (np.isfinite(norm) and np.isfinite(tmu)):
        raise ValidationError(
            f"t={t!r}: t*||A - mu I||_1 or t*mu is not finite, mu = tr(A)/d")
    s = max(0, int(np.frexp(norm)[1]))
    B = A * (-1j * np.ldexp(t, -s))
    U = I + B / TAYLOR_DEGREE
    for k in range(TAYLOR_DEGREE - 1, 0, -1):
        U = I + B @ U / k
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            U = U @ U
        return U * np.exp(-1j * tmu)
