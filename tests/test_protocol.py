import numpy as np
import pytest

from conftest import (DEMO_ADVANTAGE_2, DEMO_ERGOTROPY, random_battery,
                      random_density_matrix, random_diagonal_state,
                      random_unitary)
from ergokit import (BatterySpec, QuantumState, apply_unitary,
                     best_product_work, brute_force_oracle, curve,
                     entangling_advantage, ergotropy, evolve, gibbs_state,
                     optimal_unitary)
from ergokit.ensemble import product_energies, product_populations
from ergokit.protocol import ControlSchedule
from ergokit.errors import (DimensionMismatchError, NotHermitianError,
                            NotUnitaryError, ValidationError)

QUBIT = BatterySpec(np.array([0.0, 1.0]))
QUBIT_STATE = QuantumState.diagonal([0.2, 0.8])


def swap_schedule(battery, dt=1.0):
    """Single segment realizing the two-level swap up to a phase:
    H + V = (pi / (2 dt)) X."""
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    V = (np.pi / (2 * dt)) * X - np.diag(battery.energies)
    return ControlSchedule.from_pairs([(dt, V)])


class TestControlSchedule:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValidationError):
            ControlSchedule.from_pairs([(0.0, np.zeros((2, 2)))])

    def test_rejects_non_hermitian_control(self):
        with pytest.raises(NotHermitianError):
            ControlSchedule.from_pairs([(1.0, [[0, 1], [0, 0]])])

    def test_total_duration(self):
        sched = ControlSchedule.from_pairs([(0.5, np.zeros((2, 2))),
                                            (1.5, np.eye(2))])
        assert sched.total_duration == pytest.approx(2.0)


class TestEvolve:
    def test_empty_schedule(self):
        res = evolve(QUBIT_STATE, QUBIT, ControlSchedule.from_pairs([]))
        np.testing.assert_array_equal(res.total_unitary, np.eye(2))
        assert res.work == 0.0

    def test_free_evolution_extracts_nothing(self):
        sched = ControlSchedule.from_pairs([(2.7, np.zeros((2, 2)))])
        res = evolve(QUBIT_STATE, QUBIT, sched)
        assert abs(res.work) <= 1e-12

    def test_qubit_swap_extracts_full_ergotropy(self):
        res = evolve(QUBIT_STATE, QUBIT, swap_schedule(QUBIT))
        assert res.work == pytest.approx(0.6, abs=1e-8)
        np.testing.assert_allclose(res.final_state.diagonal_populations(),
                                   [0.8, 0.2], atol=1e-8)

    def test_swap_on_shifted_battery(self):
        bat = BatterySpec(np.array([0.3, 1.7]))
        state = QuantumState.diagonal([0.2, 0.8])
        res = evolve(state, bat, swap_schedule(bat, dt=0.37))
        assert res.work == pytest.approx(0.6 * (1.7 - 0.3), abs=1e-8)

    def test_random_schedules_respect_ergotropy(self, demo_battery,
                                                demo_anti_state):
        rng = np.random.default_rng(64)
        w_max = ergotropy(demo_anti_state, demo_battery)
        for _ in range(100):
            segs = []
            for _ in range(int(rng.integers(1, 4))):
                G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                segs.append((rng.uniform(0.1, 2.0), (G + G.conj().T) / 2))
            res = evolve(demo_anti_state, demo_battery,
                         ControlSchedule.from_pairs(segs))
            assert res.work <= w_max + 1e-8

    def test_unitarity_and_bookkeeping(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            bat = random_battery(rng, d)
            state = random_density_matrix(rng, d)
            G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            sched = ControlSchedule.from_pairs(
                [(rng.uniform(0.1, 1.0), (G + G.conj().T) / 2)])
            res = evolve(state, bat, sched)
            U = res.total_unitary
            assert np.max(np.abs(U.conj().T @ U - np.eye(d))) <= 1e-8
            delta = state.matrix - res.final_state.matrix
            work_from_trace = float(np.diag(delta).real @ bat.energies)
            assert abs(res.work - work_from_trace) <= 1e-10

    def test_dimension_mismatch(self):
        sched = ControlSchedule.from_pairs([(1.0, np.zeros((3, 3)))])
        with pytest.raises(DimensionMismatchError):
            evolve(QUBIT_STATE, QUBIT, sched)

    def test_two_copy_run_with_sum_hamiltonian(self):
        # n-copy batteries enter as the (degenerate) diagonal of the sum
        # Hamiltonian, not as a BatterySpec
        rng = np.random.default_rng(70)
        energies = product_energies(QUBIT, 2)
        big = QuantumState.diagonal(
            product_populations(QUBIT_STATE.populations, 2))
        w_2 = curve(QUBIT_STATE, QUBIT, 2).work[2]
        for _ in range(20):
            G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            sched = ControlSchedule.from_pairs(
                [(rng.uniform(0.2, 1.5), (G + G.conj().T) / 2)])
            res = evolve(big, energies, sched)
            assert res.work <= 2 * w_2 + 1e-8
            U = res.total_unitary
            assert np.max(np.abs(U.conj().T @ U - np.eye(4))) <= 1e-8


class TestApplyUnitary:
    def test_optimal_unitary_attains_ergotropy(self, demo_battery,
                                               demo_anti_state):
        U = optimal_unitary(demo_anti_state, demo_battery)
        res = apply_unitary(demo_anti_state, demo_battery, U)
        assert res.work == pytest.approx(DEMO_ERGOTROPY, abs=1e-9)

    def test_identity_does_nothing(self, demo_battery, demo_anti_state):
        res = apply_unitary(demo_anti_state, demo_battery, np.eye(3))
        assert res.work == 0.0

    def test_diagonal_phases_do_nothing(self, demo_battery, demo_anti_state):
        U = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.5])))
        res = apply_unitary(demo_anti_state, demo_battery, U)
        assert abs(res.work) <= 1e-12

    def test_rejects_non_unitary(self, demo_battery, demo_anti_state):
        with pytest.raises(NotUnitaryError):
            apply_unitary(demo_anti_state, demo_battery, np.eye(3) * 1.01)

    def test_random_unitaries_respect_ergotropy(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            bat = random_battery(rng, d)
            state = random_density_matrix(rng, d)
            res = apply_unitary(state, bat, random_unitary(rng, d))
            assert res.work <= ergotropy(state, bat) + 1e-8


class TestProductVsEntangling:
    def test_best_product_single_copy(self, demo_battery, demo_anti_state):
        assert best_product_work(demo_anti_state, demo_battery, 1) == \
            pytest.approx(DEMO_ERGOTROPY, abs=1e-12)

    def test_demo_two_copies(self, demo_battery, demo_anti_state):
        product = best_product_work(demo_anti_state, demo_battery, 2)
        assert product == pytest.approx(2 * DEMO_ERGOTROPY, abs=1e-12)
        c = curve(demo_anti_state, demo_battery, 2)
        assert 2 * c.work[2] > product

    def test_passive_state_has_no_product_work(self, demo_battery,
                                               demo_passive_state):
        assert best_product_work(demo_passive_state, demo_battery, 3) <= 1e-12

    def test_demo_advantage_matches_independent_recomputation(
            self, demo_battery, demo_anti_state):
        adv = entangling_advantage(demo_anti_state, demo_battery, 2)
        assert adv == pytest.approx(DEMO_ADVANTAGE_2, abs=1e-9)
        spectrum = demo_anti_state.spectrum_descending
        indep = 2 * (brute_force_oracle(spectrum, demo_battery, 1)
                     - brute_force_oracle(spectrum, demo_battery, 2))
        assert adv == pytest.approx(indep, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gibbs_state_has_no_advantage(self, demo_battery, n):
        state = gibbs_state(demo_battery, 0.8).to_state()
        assert abs(entangling_advantage(state, demo_battery, n)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_passive_qubit_has_no_advantage(self, n):
        state = QuantumState.diagonal([0.7, 0.3])
        assert abs(entangling_advantage(state, QUBIT, n)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_advantage_matches_curve_work(self, demo_battery,
                                          demo_anti_state, n):
        # built from the n-copy table alone, bit for bit the curve's value
        c = curve(demo_anti_state, demo_battery, n)
        assert entangling_advantage(demo_anti_state, demo_battery, n) == \
            n * c.work[n] - best_product_work(demo_anti_state, demo_battery, n)

    def test_advantage_nonnegative(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            bat = random_battery(rng, d)
            state = random_diagonal_state(rng, d)
            n = int(rng.integers(2, 5))
            assert entangling_advantage(state, bat, n) >= -1e-12

    def test_global_unitaries_respect_n_copy_ceiling(self):
        rng = np.random.default_rng(68)
        for d, n in ((2, 2), (2, 3), (3, 2), (2, 6), (4, 3), (8, 2)):
            bat = random_battery(rng, d)
            state = random_diagonal_state(rng, d)
            w_n = curve(state, bat, n).work[n]
            energies = product_energies(bat, n)
            big = QuantumState.diagonal(
                product_populations(state.populations, n))
            for _ in range(10):
                U = random_unitary(rng, d ** n)
                res = apply_unitary(big, energies, U)
                assert res.work <= n * w_n + 1e-8
