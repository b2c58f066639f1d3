import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (DEMO_ERGOTROPY, DEMO_INITIAL_ENERGY, DEMO_PASSIVE_ENERGY,
                      DEMO_SPECTRUM, MAXMIX_ENERGY, random_battery,
                      random_density_matrix, random_diagonal_state,
                      random_unitary)
from ergokit import (BatterySpec, QuantumState, curve, energy,
                     entangling_advantage, ergotropy, is_passive, linalg,
                     optimal_unitary, passive_state, thermodynamic_bound)
from ergokit.errors import (DimensionMismatchError, NotHermitianError,
                            ValidationError)


class TestBatterySpec:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValidationError):
            BatterySpec(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValidationError):
            BatterySpec(np.array([0.0, 2.0, 1.0]))

    def test_minimum_two_levels(self):
        with pytest.raises(ValidationError):
            BatterySpec(np.array([1.0]))

    def test_valid(self):
        bat = BatterySpec(np.array([-0.3, 0.1, 2.0]))
        assert bat.dim == 3


class TestQuantumState:
    def test_diagonal_trace_violation(self):
        with pytest.raises(ValidationError, match="sum"):
            QuantumState.diagonal([0.4, 0.3, 0.2])

    def test_published_rounded_spectrum_accepted_verbatim(self):
        state = QuantumState.diagonal(DEMO_SPECTRUM)   # sums to 0.999
        np.testing.assert_array_equal(state.spectrum_descending,
                                      np.array(DEMO_SPECTRUM))

    def test_roundoff_negative_clamped(self):
        state = QuantumState.diagonal([1.0 + 5e-13, -5e-13])
        spec = state.spectrum_descending
        assert spec[1] == 0.0
        assert abs(spec.sum() - 1.0) < 1e-12

    def test_large_negative_rejected(self):
        with pytest.raises(ValidationError):
            QuantumState.diagonal([1.0 + 1e-6, -1e-6])

    def test_full_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            QuantumState.full([[0.5, 0.5], [0.0, 0.5]])

    def test_full_trace_violation(self):
        with pytest.raises(ValidationError, match="trace"):
            QuantumState.full(np.diag([0.5, 0.4]))

    def test_full_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError):
            QuantumState.full(np.diag([1.5, -0.5]))

    def test_diagonal_stores_read_only_matrix(self):
        p = np.array([0.5, 0.0, 0.3, 0.2])
        state = QuantumState.diagonal(p)
        assert state.dim == 4
        assert not state.matrix.flags.writeable
        assert state.matrix.dtype == complex
        np.testing.assert_array_equal(state.matrix, np.diag(p))
        np.testing.assert_array_equal(state.diagonal_populations(), p)
        assert state.max_offdiagonal() == 0.0

    def test_both_constructors_give_identical_bits(self):
        # ties and zeros from integer counts, generic values from Dirichlet
        rng = np.random.default_rng(31)
        for k in range(240):
            d = 2 + k % 5
            if k % 2:
                c = rng.integers(0, 4, d).astype(float)
                c[0] += c.sum() == 0
                p = c / c.sum()
            else:
                p = rng.dirichlet(np.ones(d))
            bat = random_battery(rng, d)
            diag, full = QuantumState.diagonal(p), QuantumState.full(np.diag(p))
            for f in (energy, ergotropy, thermodynamic_bound):
                assert f(diag, bat) == f(full, bat), (f.__name__, p)
            np.testing.assert_array_equal(optimal_unitary(diag, bat),
                                          optimal_unitary(full, bat))
            assert curve(diag, bat, 4).work == curve(full, bat, 4).work, p
            assert (entangling_advantage(diag, bat, 2)
                    == entangling_advantage(full, bat, 2)), p

    @pytest.mark.parametrize("populations", [
        pytest.param([0.25, 0.5, 0.25], id="tied"),
        pytest.param([0.0, 0.7, 0.0, 0.3], id="zero"),
        pytest.param([-0.0, 0.6, 0.4], id="negative-zero"),
        pytest.param([0.6 + 5e-13, 0.4, -5e-13], id="roundoff-negative"),
        pytest.param(np.random.default_rng(5).dirichlet(np.ones(6)), id="generic")])
    def test_diagonal_spectrum_skips_jacobi_with_its_bits(self, populations,
                                                          monkeypatch):
        # eig_hermitian rotates nothing when every off-diagonal entry is 0:
        # diagonal() and full() of such a matrix skip it for the same bytes
        p = np.array(populations)
        want = []
        for m in (np.diag(p.astype(complex)), np.diag(p + 1e-11j)):
            w = linalg.eig_hermitian(m, vectors=False).eigenvalues
            trace = float(np.sum(w))
            w = np.clip(w, 0.0, None)
            w *= trace / np.sum(w)
            want.append(np.sort(w, kind="stable")[::-1])
        calls = []
        eig_hermitian = linalg.eig_hermitian

        def spy(*args, **kwargs):
            calls.append(args)
            return eig_hermitian(*args, **kwargs)

        monkeypatch.setattr(linalg, "eig_hermitian", spy)
        diag = QuantumState.diagonal(p)
        full = QuantumState.full(np.diag(p + 1e-11j))
        assert len(calls) == 1   # full()'s own floor check
        for state, w in zip((diag, full), want):
            got = state.spectrum_descending
            assert got.tobytes() == w.tobytes(), (got, w)
        assert len(calls) == 1

    def test_full_spectrum_matches_construction(self):
        rng = np.random.default_rng(21)
        U = random_unitary(rng, 3)
        rho = (U * np.array([0.5, 0.3, 0.2])) @ U.conj().T
        state = QuantumState.full(rho)
        np.testing.assert_allclose(state.spectrum_descending,
                                   [0.5, 0.3, 0.2], atol=1e-9)


class TestEnergy:
    def test_maximally_mixed(self, demo_battery):
        state = QuantumState.diagonal(np.full(3, 1 / 3))
        assert energy(state, demo_battery) == pytest.approx(MAXMIX_ENERGY, abs=1e-12)

    def test_ground_state(self):
        bat = BatterySpec(np.array([0.7, 1.1, 3.0]))
        assert energy(QuantumState.diagonal([1, 0, 0]), bat) == pytest.approx(0.7)

    def test_demo_anti_passive(self, demo_battery, demo_anti_state):
        assert energy(demo_anti_state, demo_battery) == pytest.approx(
            DEMO_INITIAL_ENERGY, abs=1e-12)

    def test_dimension_mismatch(self, demo_battery):
        with pytest.raises(DimensionMismatchError):
            energy(QuantumState.diagonal([0.5, 0.5]), demo_battery)


class TestIsPassive:
    def test_demo_passive_arrangement(self, demo_battery, demo_passive_state):
        assert is_passive(demo_passive_state, demo_battery)

    def test_demo_anti_arrangement(self, demo_battery, demo_anti_state):
        assert not is_passive(demo_anti_state, demo_battery)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 40.0])
    def test_gibbs_states_are_passive(self, demo_battery, beta):
        from ergokit import gibbs_state
        assert is_passive(gibbs_state(demo_battery, beta).to_state(), demo_battery)

    def test_coherences_break_passivity(self, demo_battery):
        rho = np.diag([0.6, 0.25, 0.15]).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.05
        assert not is_passive(QuantumState.full(rho), demo_battery)


class TestPassiveState:
    def test_demo_report(self, demo_battery, demo_anti_state):
        rep = passive_state(demo_anti_state, demo_battery)
        np.testing.assert_allclose(rep.passive_populations, DEMO_SPECTRUM,
                                   atol=1e-14)
        assert rep.passive_energy == pytest.approx(DEMO_PASSIVE_ENERGY, abs=1e-12)
        assert rep.initial_energy == pytest.approx(DEMO_INITIAL_ENERGY, abs=1e-12)
        assert rep.ergotropy == pytest.approx(DEMO_ERGOTROPY, abs=1e-12)

    def test_already_passive_has_zero_ergotropy(self, demo_battery,
                                                demo_passive_state):
        rep = passive_state(demo_passive_state, demo_battery)
        assert abs(rep.ergotropy) <= 1e-12

    def test_spectrum_recovered_under_conjugation(self, demo_battery):
        rng = np.random.default_rng(42)
        target = np.array([0.5, 0.3, 0.2])
        for _ in range(10):
            U = random_unitary(rng, 3)
            rho = (U * target) @ U.conj().T
            rep = passive_state(QuantumState.full(rho), demo_battery)
            np.testing.assert_allclose(rep.passive_populations, target,
                                       atol=1e-9)


class TestOptimalUnitary:
    def test_identity_on_passive_diagonal(self, demo_battery, demo_passive_state):
        U = optimal_unitary(demo_passive_state, demo_battery)
        np.testing.assert_allclose(np.abs(U), np.eye(3), atol=1e-12)

    def test_qubit_swap(self):
        bat = BatterySpec(np.array([0.2, 1.4]))
        state = QuantumState.diagonal([0.2, 0.8])
        U = optimal_unitary(state, bat)
        np.testing.assert_allclose(np.abs(U), [[0, 1], [1, 0]], atol=1e-12)
        rho_after = (U * np.array([0.2, 0.8])) @ U.conj().T
        e_after = float(np.diag(rho_after).real @ bat.energies)
        assert e_after == pytest.approx(0.8 * 0.2 + 0.2 * 1.4, abs=1e-12)
        work = energy(state, bat) - e_after
        assert work == pytest.approx(0.6 * (1.4 - 0.2), abs=1e-12)

    def test_ties_keep_their_order(self):
        # stable sort: the tied 0.25s stay in level order
        bat = BatterySpec(np.array([0.0, 1.0, 2.0]))
        U = optimal_unitary(QuantumState.diagonal([0.25, 0.5, 0.25]), bat)
        np.testing.assert_array_equal(U, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_rotates_to_passive(self, demo_battery):
        rng = np.random.default_rng(9)
        for _ in range(10):
            state = random_density_matrix(rng, 3)
            U = optimal_unitary(state, demo_battery)
            rho_p = U @ state.matrix @ U.conj().T
            e_rot = float(np.diag(rho_p).real @ demo_battery.energies)
            rep = passive_state(state, demo_battery)
            assert abs(e_rot - rep.passive_energy) <= 1e-9
            offdiag = rho_p - np.diag(np.diag(rho_p))
            assert np.max(np.abs(offdiag)) <= 1e-9

    def test_only_the_unitary_asks_for_eigenvectors(self, monkeypatch):
        rng = np.random.default_rng(12)
        matrix = random_density_matrix(rng, 4).matrix
        bat = random_battery(rng, 4)
        asked = []
        eig_hermitian = linalg.eig_hermitian

        def spy(M, vectors=True):
            asked.append(vectors)
            return eig_hermitian(M, vectors=vectors)

        monkeypatch.setattr(linalg, "eig_hermitian", spy)
        state = QuantumState.full(matrix)
        assert asked == [False]
        state.spectrum_descending
        assert asked == [False, False]
        optimal_unitary(state, bat)
        assert asked == [False, False, True]


class TestInvariants:
    @given(seed=st.integers(0, 100_000))
    def test_ergotropy_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        bat = random_battery(rng, d)
        state = (random_diagonal_state(rng, d) if rng.random() < 0.5
                 else random_density_matrix(rng, d))
        assert ergotropy(state, bat) >= -1e-12

    @given(seed=st.integers(0, 100_000))
    def test_passive_state_is_passive_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        bat = random_battery(rng, d)
        rep = passive_state(random_density_matrix(rng, d), bat)
        sigma = QuantumState.diagonal(rep.passive_populations)
        assert is_passive(sigma, bat)
        assert rep.passive_populations.sum() == pytest.approx(1.0, abs=1e-10)

    def test_passive_energy_is_conjugation_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            bat = random_battery(rng, d)
            state = random_density_matrix(rng, d)
            U = random_unitary(rng, d)
            rotated = QuantumState.full(U @ state.matrix @ U.conj().T)
            a = passive_state(state, bat).passive_energy
            b = passive_state(rotated, bat).passive_energy
            assert abs(a - b) <= 1e-9

    def test_zero_ergotropy_iff_passive(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            bat = random_battery(rng, d)
            state = random_diagonal_state(rng, d)
            zero_work = ergotropy(state, bat) <= 1e-9
            assert zero_work == is_passive(state, bat)

    def test_brute_force_minimality_small_dims(self, demo_battery,
                                               demo_anti_state):
        rng = np.random.default_rng(2024)
        rep = passive_state(demo_anti_state, demo_battery)
        rho = np.diag(np.array([0.224, 0.237, 0.538], dtype=complex))
        H = demo_battery.energies
        best = np.inf
        for _ in range(10_000):
            U = random_unitary(rng, 3)
            e = float(np.einsum("ij,jk,ik,i->", U, rho, U.conj(), H).real)
            best = min(best, e)
        assert best >= rep.passive_energy - 1e-9
        U_opt = optimal_unitary(demo_anti_state, demo_battery)
        e_opt = float(np.einsum("ij,jk,ik,i->", U_opt, rho, U_opt.conj(), H).real)
        assert abs(e_opt - rep.passive_energy) <= 1e-9
