import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (DEMO_BETA, DEMO_ENTROPY, DEMO_GIBBS_ENERGY,
                      DEMO_INITIAL_ENERGY, ENTROPY_GIBBS_BETA1, MAXMIX_ENERGY,
                      OVERFULL_ENERGIES, OVERFULL_POPULATIONS, random_battery, random_density_matrix,
                      random_diagonal_state)
from ergokit import (BatterySpec, QuantumState, energy, ergotropy, gibbs_state,
                     match_entropy, passive_state, thermodynamic_bound)
from ergokit import gibbs
from ergokit.gibbs import (MATCH_TOL, beta_cap, entropy,
                           entropy_of_populations)
from ergokit.errors import TargetOutOfRangeError


def _entropy_at(battery, beta):
    return entropy_of_populations(gibbs_state(battery, beta).populations)


def _energy_at(battery, beta):
    return float(np.dot(gibbs_state(battery, beta).populations, battery.energies))


class TestEntropy:
    def test_pure_state(self):
        assert entropy(QuantumState.diagonal([1, 0, 0])) == 0.0

    def test_maximally_mixed(self):
        state = QuantumState.diagonal(np.full(3, 1 / 3))
        assert entropy(state) == pytest.approx(math.log(3), abs=1e-12)

    def test_demo_spectrum(self, demo_passive_state):
        assert entropy(demo_passive_state) == pytest.approx(DEMO_ENTROPY,
                                                            abs=1e-12)

    @given(seed=st.integers(0, 100_000))
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 8))
        state = random_diagonal_state(rng, d)
        s = entropy(state)
        assert 0.0 <= s <= math.log(d) + 1e-12

    def test_basis_independence(self):
        rng = np.random.default_rng(31)
        state = random_density_matrix(rng, 4)
        diag_twin = QuantumState.diagonal(state.spectrum_descending)
        assert entropy(state) == pytest.approx(entropy(diag_twin), abs=1e-12)


class TestGibbsState:
    def test_infinite_temperature(self, demo_battery):
        gs = gibbs_state(demo_battery, 0.0)
        np.testing.assert_allclose(gs.populations, np.full(3, 1 / 3), atol=1e-15)
        assert gs.partition_function == pytest.approx(3.0)

    def test_ground_state_limit(self, demo_battery):
        gs = gibbs_state(demo_battery, 1e6)
        assert gs.populations[0] == pytest.approx(1.0, abs=1e-100)
        assert gs.populations[1] <= 1e-100
        assert gs.populations[2] <= 1e-100

    def test_beta_one(self, demo_battery):
        gs = gibbs_state(demo_battery, 1.0)
        weights = np.exp(-np.array([0.0, 0.579, 1.0]))
        np.testing.assert_allclose(gs.populations, weights / weights.sum(),
                                   atol=1e-15)
        assert entropy_of_populations(gs.populations) == pytest.approx(
            ENTROPY_GIBBS_BETA1, abs=1e-12)

    def test_shift_convention(self):
        # populations only see energy differences; Z is reported in the
        # ground-shifted convention together with the shift
        a = gibbs_state(BatterySpec(np.array([0.0, 0.5, 1.3])), 2.0)
        b = gibbs_state(BatterySpec(np.array([10.0, 10.5, 11.3])), 2.0)
        np.testing.assert_allclose(a.populations, b.populations, atol=1e-15)
        assert a.partition_function == pytest.approx(b.partition_function)
        assert b.energy_shift == 10.0

    def test_negative_beta_rejected(self, demo_battery):
        with pytest.raises(ValueError):
            gibbs_state(demo_battery, -0.1)


class TestMatchEntropy:
    def test_max_entropy_gives_beta_zero(self, demo_battery):
        m = match_entropy(demo_battery, math.log(3))
        assert m.beta == 0.0
        assert m.gibbs_energy == pytest.approx(MAXMIX_ENERGY, abs=1e-12)

    def test_demo_instance(self, demo_battery):
        m = match_entropy(demo_battery, DEMO_ENTROPY)
        assert abs(m.gibbs_entropy - DEMO_ENTROPY) <= 1e-12
        assert m.beta == pytest.approx(DEMO_BETA, abs=1e-8)
        assert m.gibbs_energy == pytest.approx(DEMO_GIBBS_ENERGY, abs=1e-10)
        assert not m.saturated

    def test_qubit_entropy_determines_spectrum(self):
        bat = BatterySpec(np.array([0.0, 1.0]))
        target = entropy(QuantumState.diagonal([0.7, 0.3]))
        m = match_entropy(bat, target)
        assert abs(m.gibbs_entropy - target) <= 1e-13
        np.testing.assert_allclose(m.populations, [0.7, 0.3], atol=1e-10)
        assert m.gibbs_energy == pytest.approx(0.3, abs=1e-10)

    def test_zero_entropy_saturates(self, demo_battery):
        m = match_entropy(demo_battery, 0.0)
        assert m.saturated
        assert m.beta == pytest.approx(beta_cap(demo_battery))
        assert m.gibbs_energy == pytest.approx(0.0, abs=1e-12)

    def test_target_out_of_range(self, demo_battery):
        with pytest.raises(TargetOutOfRangeError):
            match_entropy(demo_battery, math.log(3) + 1e-3)
        with pytest.raises(TargetOutOfRangeError):
            match_entropy(demo_battery, -1e-3)

    def test_populations_sum_to_one(self, demo_battery):
        m = match_entropy(demo_battery, 0.7)
        assert abs(m.populations.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(m.populations) < 0)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 5.0, 17.3, 50.0])
    def test_round_trip(self, demo_battery, beta):
        target = _entropy_at(demo_battery, beta)
        m = match_entropy(demo_battery, target)
        assert abs(m.gibbs_entropy - target) <= 1e-13
        assert m.beta == pytest.approx(beta, abs=1e-6)
        assert not m.saturated

    @pytest.mark.parametrize("target", [0.05, 0.7, 1.05])
    def test_one_gibbs_state_per_match(self, demo_battery, monkeypatch,
                                       target):
        # the bracket and bisection evaluate S(beta) without a GibbsState
        betas = []
        real = gibbs.gibbs_state
        monkeypatch.setattr(gibbs, "gibbs_state",
                            lambda bat, beta: betas.append(beta) or real(bat, beta))
        m = match_entropy(demo_battery, target)
        assert not m.saturated
        assert betas == [m.beta]

    def test_tiny_target_above_the_cap_entropy_is_bisected(self):
        # S(omega_50) ~ 8e-11 lies between S(omega_beta_cap) and MATCH_TOL
        bat = BatterySpec(np.array([0.0, 0.579, 1.0]))
        target = _entropy_at(bat, 50.0)
        assert _entropy_at(bat, beta_cap(bat)) < target < 1e-10
        m = match_entropy(bat, target)
        assert m.beta == pytest.approx(50.0, abs=1e-6)
        assert not m.saturated
        assert match_entropy(bat, 0.0).saturated

    def test_wide_first_gap_puts_beta_cap_below_one(self):
        # a first gap above ln 1e15 ~ 34.54 starts the doubling at the cap
        bat = BatterySpec(np.array([0.0, 50.0, 60.0]))
        cap = beta_cap(bat)
        assert cap < 1.0
        m = match_entropy(bat, 0.0)
        assert m.saturated
        assert m.beta == cap
        target = _entropy_at(bat, 0.1)
        m = match_entropy(bat, target)
        assert abs(m.gibbs_entropy - target) <= MATCH_TOL
        assert m.beta == pytest.approx(0.1, abs=1e-6)
        assert not m.saturated


class TestMonotonicity:
    def test_entropy_and_energy_decrease_in_beta(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            bat = random_battery(rng, int(rng.integers(2, 7)))
            grid = np.linspace(0.0, 50.0, 60)
            s = [_entropy_at(bat, b) for b in grid]
            e = [_energy_at(bat, b) for b in grid]
            assert np.all(np.diff(s) < 0)
            assert np.all(np.diff(e) < 0)


class TestThermodynamicBound:
    def test_passive_qubit_saturates(self):
        bat = BatterySpec(np.array([0.0, 1.0]))
        state = QuantumState.diagonal([0.7, 0.3])
        bound = thermodynamic_bound(state, bat)
        assert abs(bound) <= 1e-9
        assert abs(bound - ergotropy(state, bat)) <= 1e-9

    def test_maximally_mixed(self, demo_battery):
        state = QuantumState.diagonal(np.full(3, 1 / 3))
        assert abs(thermodynamic_bound(state, demo_battery)) <= 1e-12

    def test_entropy_above_ln_d_matches_beta_zero(self):
        bat = BatterySpec(np.array(OVERFULL_ENERGIES))
        state = QuantumState.diagonal(OVERFULL_POPULATIONS)
        assert entropy(state) > math.log(3)
        assert thermodynamic_bound(state, bat) == pytest.approx(
            energy(state, bat) - 0.5, abs=1e-15)

    def test_demo_bound_exceeds_ergotropy(self, demo_battery, demo_anti_state):
        bound = thermodynamic_bound(demo_anti_state, demo_battery)
        assert bound == pytest.approx(DEMO_INITIAL_ENERGY - DEMO_GIBBS_ENERGY,
                                      abs=1e-8)
        assert bound > ergotropy(demo_anti_state, demo_battery)

    def test_bound_chain(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            bat = random_battery(rng, d)
            state = (random_diagonal_state(rng, d) if rng.random() < 0.5
                     else random_density_matrix(rng, d))
            rep = passive_state(state, bat)
            m = match_entropy(bat, entropy(state))
            assert energy(state, bat) >= rep.passive_energy - 1e-10
            assert rep.passive_energy >= m.gibbs_energy - 1e-8

    def test_qubit_case_is_tight(self):
        rng = np.random.default_rng(505)
        for _ in range(200):
            bat = random_battery(rng, 2)
            state = random_density_matrix(rng, 2)
            gap = thermodynamic_bound(state, bat) - ergotropy(state, bat)
            assert abs(gap) <= 1e-8
