import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_density_matrix, random_unitary
from ergokit import QuantumState, linalg
from ergokit.errors import (DimensionMismatchError, NoConvergenceError,
                            NotHermitianError, ValidationError)


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
    def test_identity_tol_zero(self, monkeypatch):
        monkeypatch.setattr(linalg, "HERMITIAN_TOL", 0.0)
        assert linalg.is_hermitian(np.eye(3))

    def test_antihermitian_offdiagonal(self, monkeypatch):
        monkeypatch.setattr(linalg, "HERMITIAN_TOL", 1e-12)
        assert not linalg.is_hermitian([[0, 1j], [1j, 0]])

    def test_pauli_y_tol_zero(self, monkeypatch):
        monkeypatch.setattr(linalg, "HERMITIAN_TOL", 0.0)
        assert linalg.is_hermitian([[0, 1j], [-1j, 0]])

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

    def test_sweep_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergenceError):
            linalg.eig_hermitian([[0, 1], [1, 0]])

    @pytest.mark.parametrize("value", [2.5, -1.0, 3 + 0j])
    def test_one_by_one(self, value):
        eig = linalg.eig_hermitian([[value]])
        assert eig.eigenvalues.dtype == float
        assert eig.eigenvalues.tolist() == [complex(value).real]
        assert eig.eigenvectors.dtype == complex
        assert np.array_equal(eig.eigenvectors, np.eye(1))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_zero_matrix(self, d):
        eig = linalg.eig_hermitian(np.zeros((d, d)))
        assert eig.eigenvalues.dtype == float
        assert np.array_equal(eig.eigenvalues, np.zeros(d))
        assert not np.any(np.signbit(eig.eigenvalues))
        assert eig.eigenvectors.dtype == complex
        assert np.array_equal(eig.eigenvectors, np.eye(d))

    def test_degenerate_spectrum(self):
        # projector with a two-fold eigenvalue; any eigenspace basis is fine
        M = np.diag([1.0, 1.0, 0.0])
        eig = linalg.eig_hermitian(M)
        np.testing.assert_allclose(eig.eigenvalues, [0.0, 1.0, 1.0], atol=1e-14)
        rec = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        np.testing.assert_allclose(rec, M, atol=1e-12)


def assert_matches_eigh(M, eig, tol=1e-13):
    """Eigenvalues against LAPACK eigh (a test oracle only), the residual
    max|M Q - Q diag(w)| and the orthogonality defect max|Q^dag Q - I|,
    each within tol times max|M| (the orthogonality defect within tol)."""
    scale = float(np.max(np.abs(M)))
    Q, w = eig.eigenvectors, eig.eigenvalues
    assert np.max(np.abs(w - np.linalg.eigvalsh(M))) <= tol * scale
    assert np.max(np.abs(M @ Q - Q * w)) <= tol * scale
    assert np.max(np.abs(Q.conj().T @ Q - np.eye(len(w)))) <= tol


class TestRoundRobin:
    """The Brent-Luk schedule and the solver at the sizes simulate runs."""

    @pytest.mark.parametrize("d", range(2, 66))
    def test_schedule_covers_every_pair_once(self, d):
        steps = linalg._round_robin(d)
        assert len(steps) == d - 1 + d % 2
        seen = []
        for P, Q, PQ, QP in steps:
            assert len(P) == len(Q) == d // 2
            assert np.all(P < Q) and np.all(Q < d) and np.all(P >= 0)
            # disjoint: no index twice in one step
            assert len(set(P.tolist() + Q.tolist())) == 2 * len(P)
            assert np.array_equal(PQ, np.concatenate((P, Q)))
            assert np.array_equal(QP, np.concatenate((Q, P)))
            seen += zip(P.tolist(), Q.tolist())
        assert sorted(seen) == [(p, q) for p in range(d) for q in range(p + 1, d)]

    @pytest.mark.parametrize("d", [7, 8, 16, 32, 33, 64])
    def test_matches_eigh_at_simulated_sizes(self, d):
        rng = np.random.default_rng(200 + d)
        M = random_hermitian(rng, d, scale=rng.uniform(0.1, 10.0))
        assert_matches_eigh(M, linalg.eig_hermitian(M))

    def test_repeated_calls_are_bit_identical_at_d32(self):
        M = random_hermitian(np.random.default_rng(232), 32)
        a = linalg.eig_hermitian(M.copy())
        b = linalg.eig_hermitian(M.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert (a.sweeps, a.residual) == (b.sweeps, b.residual)

    def test_fourfold_degenerate_spectrum_at_d16(self):
        rng = np.random.default_rng(216)
        U = random_unitary(rng, 16)
        w = np.repeat([-1.5, 0.25, 0.5, 3.0], 4)
        M = (U * w) @ U.conj().T
        M = (M + M.conj().T) / 2
        eig = linalg.eig_hermitian(M)
        assert_matches_eigh(M, eig)
        np.testing.assert_allclose(eig.eigenvalues, w, rtol=0, atol=1e-13 * 3.0)

    def test_exact_zero_pairs_take_the_identity_rotation(self):
        # a block-diagonal matrix: every pair across the two blocks is an
        # exact zero, skipped in every sweep, and stays exactly zero
        rng = np.random.default_rng(217)
        M = np.zeros((9, 9), dtype=complex)
        M[:4, :4] = random_hermitian(rng, 4)
        M[4:, 4:] = random_hermitian(rng, 5)
        eig = linalg.eig_hermitian(M)
        assert eig.sweeps > 0
        assert_matches_eigh(M, eig)
        Q = eig.eigenvectors
        blocks = np.abs(Q[:4]).sum(axis=0) * np.abs(Q[4:]).sum(axis=0)
        assert np.all(blocks == 0.0)

    def test_sweeps_and_residual(self):
        M = random_hermitian(np.random.default_rng(232), 32)
        eig = linalg.eig_hermitian(M)
        assert 0 < eig.sweeps <= 12
        assert 0.0 <= eig.residual <= 1e-14 * np.max(np.abs(M))

    def test_diagonal_input_takes_zero_sweeps(self):
        eig = linalg.eig_hermitian(np.diag([3.0, -1.0, 2.0, 0.5]))
        assert (eig.sweeps, eig.residual) == (0, 0.0)
        # the curve's spectrum call on a diagonal state exits the same way
        state = QuantumState.diagonal([0.5, 0.3, 0.2])
        eig = linalg.eig_hermitian(state.matrix)
        assert (eig.sweeps, eig.residual) == (0, 0.0)
        assert np.array_equal(eig.eigenvectors, np.eye(3)[:, ::-1])

    def test_budget_message_reports_residual(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        M = random_hermitian(np.random.default_rng(233), 8)
        with pytest.raises(NoConvergenceError, match=r"budget \(1\) exhausted; "
                           r"residual off-diagonal \d"):
            linalg.eig_hermitian(M)



class TestInnerAngleAndVectorFree:
    """The inner rotation angle and the vectors=False option."""

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32, 33])
    def test_vector_free_call_gives_the_same_bits(self, d):
        rng = np.random.default_rng(300 + d)
        for M in (random_hermitian(rng, d), random_density_matrix(rng, d).matrix):
            full = linalg.eig_hermitian(M)
            bare = linalg.eig_hermitian(M, vectors=False)
            assert bare.eigenvectors is None
            assert np.array_equal(bare.eigenvalues, full.eigenvalues)
            assert (bare.sweeps, bare.residual) == (full.sweeps, full.residual)

    def test_vector_free_diagonal_input_takes_zero_sweeps(self):
        # the vectors=True call is TestRoundRobin's diagonal test
        eig = linalg.eig_hermitian(np.diag([3.0, -1.0, 2.0, 0.5]), vectors=False)
        assert (eig.sweeps, eig.residual) == (0, 0.0)
        assert eig.eigenvalues.tolist() == [-1.0, 0.5, 2.0, 3.0]

    @pytest.mark.parametrize("d, count, bound", [(8, 40, 5.7), (16, 20, 7.2),
                                                 (32, 12, 8.7)])
    def test_mean_sweeps_on_density_matrices(self, d, count, bound):
        # each bound lies between the mean measured with these seeds (5.35 /
        # 6.85 / 7.92 at d = 8 / 16 / 32) and the outer angle's (6.05 /
        # 7.85 / 9.58)
        rng = np.random.default_rng(800 + d)
        sweeps = [linalg.eig_hermitian(random_density_matrix(rng, d).matrix).sweeps
                  for _ in range(count)]
        assert np.mean(sweeps) < bound

    def test_nearly_diagonal_input_keeps_its_basis(self):
        # small rotations only: no pair swaps its diagonal entries, so each
        # eigenvector stays near its own basis vector, with a positive
        # component there
        rng = np.random.default_rng(318)
        levels = rng.permutation(np.arange(8.0))
        M = np.diag(levels) + random_hermitian(rng, 8, 1e-3)
        eig = linalg.eig_hermitian(M)
        Q = eig.eigenvectors[np.argsort(levels, kind="stable")]
        assert np.max(np.abs(Q - np.eye(8))) <= 1e-2


class TestDefects:
    def test_max_offdiagonal(self):
        assert linalg.max_offdiagonal(np.array([[1.0, -3j], [2.0, 5.0]])) == 3.0

    def test_max_offdiagonal_of_1x1_is_zero(self):
        assert linalg.max_offdiagonal(np.array([[7.0]])) == 0.0

    def test_unitarity_defect(self):
        assert linalg.unitarity_defect(np.array([[0, 1j], [1, 0]])) == 0.0
        assert linalg.unitarity_defect(np.diag([1.0, 2.0])) == 3.0


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

    def test_phase_overflow_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"or t\*mu is not finite"):
                linalg.expm_hermitian_generator(np.diag([0.0, 5.0]), t=1e308)

    @given(seed=st.integers(0, 10_000), t=st.floats(-10.0, 10.0))
    def test_unitarity(self, seed, t):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        A = random_hermitian(rng, d, scale=rng.uniform(0.1, 5.0))
        if np.max(np.abs(A)) * abs(t) > 100:
            A = A / (np.max(np.abs(A)) * abs(t)) * 90
        U = linalg.expm_hermitian_generator(A, t)
        assert np.max(np.abs(U.conj().T @ U - np.eye(d))) <= 1e-9

    @pytest.mark.parametrize("offset", [0.0, 1e3], ids=["energies", "offset1e3"])
    @pytest.mark.parametrize("t_norm", [1e-3, 1.0, 30.0, 1e4])
    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32])
    def test_matches_eigh_propagator(self, d, t_norm, offset):
        # H + V with t chosen so that t ||H + V||_1 = t_norm, against a
        # LAPACK eigh propagator (a test oracle only). Measured over these
        # cases: at most 13 eps max(1, t ||A||_1), offset or not (the
        # trace shift leaves A - mu I the same size); the bound is about
        # 4x that.
        rng = np.random.default_rng(d)
        eps = np.finfo(float).eps
        for _ in range(10):
            energies = offset + np.cumsum(rng.uniform(0.05, 1.0, d))
            A = np.diag(energies) + random_hermitian(rng, d, 1 / np.sqrt(d))
            t = t_norm / np.max(np.sum(np.abs(A), axis=0))
            w, Q = np.linalg.eigh(A)
            oracle = (Q * np.exp(-1j * t * w)) @ Q.conj().T
            U = linalg.expm_hermitian_generator(A, t)
            assert np.max(np.abs(U - oracle)) <= 50 * eps * max(1.0, t_norm)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_zero_generator_is_exactly_the_identity(self, d):
        U = linalg.expm_hermitian_generator(np.zeros((d, d)), t=17.3)
        assert np.array_equal(U, np.eye(d))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.expm_hermitian_generator([[0.0, 1.0], [0.0, 0.0]], t=1.0)

    def test_makes_no_eigendecomposition(self, monkeypatch):
        monkeypatch.setattr(linalg, "eig_hermitian",
                            lambda M: pytest.fail("eig_hermitian was called"))
        rng = np.random.default_rng(3)
        for d in (1, 2, 8, 32):
            linalg.expm_hermitian_generator(random_hermitian(rng, d), t=0.7)

    @pytest.mark.parametrize("A, t", [
        (np.diag([0.0, 5.0]), 1e307), (np.diag([0.0, 5.0]), 1e20),
        ([[0.0, 1.0], [1.0, 0.0]], 1e305), ([[0.0, 1.0], [1.0, 1.0]], 1e100),
    ], ids=["diag-1e307", "diag-1e20", "x-1e305", "x+z-1e100"])
    def test_huge_t_is_not_unitary_and_raises_no_warning(self, A, t):
        # the squarings blow the roundoff up (diag-1e307, at t ||A - mu I||_1
        # = 2.5e307, takes 1,022 of them); in the other three cases they
        # overflow, silently. evolve then rejects the product
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            U = linalg.expm_hermitian_generator(A, t)
            elapsed = time.perf_counter() - start
        assert not linalg.unitarity_defect(U) <= 1e-8
        assert elapsed < 0.5
