import numpy as np
import pytest
from hypothesis import given, strategies as st

from ergokit import linalg
from ergokit.errors import (DimensionMismatchError, NoConvergenceError,
                            NotHermitianError)


def random_hermitian(rng, d, scale=1.0):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (G + G.conj().T) / 2


def characteristic_polynomial(M) -> np.ndarray:
    """Coefficients of det(xI - M), leading 1 first, by Faddeev-LeVerrier.

    Uses only matrix products and traces; serves as an eigenvalue oracle
    path that shares no code with the Jacobi solver.
    """
    A = linalg.as_square_matrix(M)
    d = A.shape[0]
    coeffs = np.zeros(d + 1, dtype=complex)
    coeffs[0] = 1.0
    Mk = np.zeros_like(A)
    I = np.eye(d, dtype=complex)
    for k in range(1, d + 1):
        Mk = A @ Mk + coeffs[k - 1] * I
        coeffs[k] = -np.trace(A @ Mk) / k
    return coeffs


def companion_eigenvalues(M):
    """Independent oracle: characteristic polynomial by Faddeev-LeVerrier,
    roots via the companion matrix (np.roots)."""
    coeffs = characteristic_polynomial(M)
    return np.sort(np.roots(coeffs).real)


class TestIsHermitian:
    def test_identity_tol_zero(self):
        assert linalg.is_hermitian(np.eye(3), tol=0.0)

    def test_antihermitian_offdiagonal(self):
        assert not linalg.is_hermitian([[0, 1j], [1j, 0]], tol=1e-12)

    def test_pauli_y_tol_zero(self):
        assert linalg.is_hermitian([[0, 1j], [-1j, 0]], tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            linalg.is_hermitian(np.eye(2), tol=-1.0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            linalg.is_hermitian(np.zeros((2, 3)))


class TestEigHermitian:
    def test_diagonal_input(self):
        eig = linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_pauli_x_spectrum(self):
        eig = linalg.eig_hermitian([[0, 1], [1, 0]])
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_matches_companion_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = random_hermitian(rng, 5)
            eig = linalg.eig_hermitian(M)
            oracle = companion_eigenvalues(M)
            np.testing.assert_allclose(eig.eigenvalues, oracle, atol=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 40])
    def test_reconstruction_and_unitarity(self, d):
        rng = np.random.default_rng(100 + d)
        M = random_hermitian(rng, d, scale=rng.uniform(0.1, 10.0))
        eig = linalg.eig_hermitian(M)
        Q, w = eig.eigenvectors, eig.eigenvalues
        rec = (Q * w) @ Q.conj().T
        norm = max(1.0, np.max(np.abs(M)))
        assert np.max(np.abs(rec - M)) <= 1e-10 * norm
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(d))) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 7, 12):
            M = random_hermitian(rng, d)
            eig = linalg.eig_hermitian(M)
            bound = 1e-9 * d * max(1.0, np.max(np.abs(M)))
            assert abs(eig.eigenvalues.sum() - np.trace(M).real) <= bound

    def test_deterministic_bits(self):
        rng = np.random.default_rng(5)
        M = random_hermitian(rng, 6)
        a = linalg.eig_hermitian(M.copy())
        b = linalg.eig_hermitian(M.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.eig_hermitian([[0, 1], [0, 0]])

    def test_sweep_budget_exhaustion(self):
        with pytest.raises(NoConvergenceError):
            linalg.eig_hermitian([[0, 1], [1, 0]], max_sweeps=0)

    def test_degenerate_spectrum(self):
        # projector with a two-fold eigenvalue; any eigenspace basis is fine
        M = np.diag([1.0, 1.0, 0.0])
        eig = linalg.eig_hermitian(M)
        np.testing.assert_allclose(eig.eigenvalues, [0.0, 1.0, 1.0], atol=1e-14)
        rec = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        np.testing.assert_allclose(rec, M, atol=1e-12)


class TestExpm:
    def test_zero_generator(self):
        U = linalg.expm_hermitian_generator(np.zeros((3, 3)), t=17.3)
        np.testing.assert_allclose(U, np.eye(3), atol=1e-14)

    def test_integer_spectrum_is_periodic(self):
        U = linalg.expm_hermitian_generator(np.diag([0.0, 1.0, 2.0]), t=2 * np.pi)
        np.testing.assert_allclose(U, np.eye(3), atol=1e-9)

    def test_pauli_x_quarter_period(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        U = linalg.expm_hermitian_generator(X, t=np.pi / 2)
        np.testing.assert_allclose(U, -1j * X, atol=1e-10)

    @given(seed=st.integers(0, 10_000), t=st.floats(-10.0, 10.0))
    def test_unitarity(self, seed, t):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        A = random_hermitian(rng, d, scale=rng.uniform(0.1, 5.0))
        if np.max(np.abs(A)) * abs(t) > 100:
            A = A / (np.max(np.abs(A)) * abs(t)) * 90
        U = linalg.expm_hermitian_generator(A, t)
        assert np.max(np.abs(U.conj().T @ U - np.eye(d))) <= 1e-9
