import itertools
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (DEMO_E2, DEMO_GIBBS_ENERGY, DEMO_PASSIVE_ENERGY,
                      DEMO_SPECTRUM, MAXMIX_ENERGY, OVERFULL_ENERGIES,
                      OVERFULL_POPULATIONS, SKEWED_E, SKEWED_SPECTRUM,
                      UNIT_TRACE_DEMO_E800, random_battery,
                      random_diagonal_state)
from exact_oracle import exact_passive_energy_per_copy
from ergokit import (BatterySpec, QuantumState, brute_force_oracle,
                     build_level_table, complete_passivity_check, curve,
                     ensemble, gibbs_state, passive_energy_per_copy,
                     passive_state)
from ergokit.ensemble import (WeightedLevelTable, _composition_matrix,
                              composition_count, product_energies,
                              product_populations)
from ergokit.errors import (CapExceededError, DimensionMismatchError,
                            NoConvergenceError, NotDiagonalError,
                            ValidationError)


class TestCompositionMatrix:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_filtered_product(self, d):
        for n in range(9):
            expected = [k for k in itertools.product(range(n + 1), repeat=d)
                        if sum(k) == n]
            K = _composition_matrix(n, d)
            np.testing.assert_array_equal(K, np.array(expected).reshape(-1, d))
            assert K.shape == (composition_count(n, d), d)
            assert K.dtype == np.int64
            assert not K.flags.writeable

    def test_log_mult_matches_exact_multinomial(self):
        # exact integer multinomials; a battery needs at least two levels
        for d in (2, 3, 4):
            bat = BatterySpec(np.arange(float(d)))
            for n in range(1, 31):
                exact = [math.log(math.factorial(n) // math.prod(
                    math.factorial(int(k)) for k in row))
                    for row in _composition_matrix(n, d)]
                t = build_level_table(np.full(d, 1.0 / d), bat, n)
                np.testing.assert_allclose(t.log_mult, exact, rtol=1e-13,
                                           atol=0.0)

    def test_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ergokit; print('scipy' in sys.modules)"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"


class TestBuildLevelTable:
    def test_single_copy(self, demo_battery):
        t = build_level_table(DEMO_SPECTRUM, demo_battery, 1)
        assert len(t) == 3
        np.testing.assert_array_equal(t.log_mult, np.zeros(3))
        np.testing.assert_allclose(np.sort(np.exp(t.log_prob)),
                                   np.sort(DEMO_SPECTRUM), atol=1e-15)
        np.testing.assert_allclose(np.sort(t.energy),
                                   np.sort(demo_battery.energies), atol=1e-15)

    def test_two_copies_hand_enumeration(self, demo_battery):
        t = build_level_table(DEMO_SPECTRUM, demo_battery, 2)
        assert len(t) == composition_count(2, 3) == 6
        # the mixed (1,1,0) composition: two configurations at energy 0.579
        i = int(np.argmin(np.abs(t.energy - 0.579)))
        assert np.exp(t.log_mult[i]) == pytest.approx(2.0, abs=1e-12)
        assert np.exp(t.log_prob[i]) == pytest.approx(0.538 * 0.237, abs=1e-15)
        # level count: 6 compositions cover 3^2 = 9 configurations
        assert np.exp(t.log_mult).sum() == pytest.approx(9.0, rel=1e-12)

    def test_deterministic_spectrum(self):
        bat = BatterySpec(np.array([0.4, 1.0]))
        t = build_level_table([1.0, 0.0], bat, 7)
        finite = t.log_prob != -np.inf
        assert finite.sum() == 1
        assert t.log_prob[finite][0] == 0.0
        assert t.energy[finite][0] == pytest.approx(7 * 0.4)

    @given(seed=st.integers(0, 10_000))
    def test_mass_and_count_invariants(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 9))
        bat = random_battery(rng, d)
        r = rng.dirichlet(np.ones(d))
        t = build_level_table(r, bat, n)
        assert np.exp(t.log_mult + t.log_prob).sum() == pytest.approx(
            1.0, abs=1e-9)
        assert np.exp(t.log_mult).sum() == pytest.approx(float(d) ** n,
                                                         rel=1e-9)

    def test_cap_exceeded(self, demo_battery):
        with pytest.raises(CapExceededError) as exc:
            build_level_table(DEMO_SPECTRUM, demo_battery, 10, cap=5)
        assert exc.value.required == composition_count(10, 3)
        assert exc.value.cap == 5

    def test_bad_spectrum(self, demo_battery):
        with pytest.raises(ValidationError):
            build_level_table([0.5, 0.3, 0.1], demo_battery, 2)
        with pytest.raises(ValidationError):
            build_level_table([1.1, -0.1, 0.0], demo_battery, 2)


class TestPassiveEnergyPerCopy:
    def test_single_copy_matches_battery_module(self, demo_battery,
                                                 demo_passive_state):
        t = build_level_table(DEMO_SPECTRUM, demo_battery, 1)
        rep = passive_state(demo_passive_state, demo_battery)
        assert passive_energy_per_copy(t) == rep.passive_energy

    def test_demo_two_copies(self, demo_battery):
        t = build_level_table(DEMO_SPECTRUM, demo_battery, 2)
        assert passive_energy_per_copy(t) == pytest.approx(DEMO_E2, abs=1e-12)

    def test_uniform_spectrum_is_rearrangement_proof(self, demo_battery):
        for n in (1, 2, 5):
            t = build_level_table(np.full(3, 1 / 3), demo_battery, n)
            assert passive_energy_per_copy(t) == pytest.approx(
                MAXMIX_ENERGY, abs=1e-12)

    def test_zero_eigenvalue_spectrum(self):
        bat = BatterySpec(np.array([0.0, 0.3, 1.0]))
        r = np.array([0.7, 0.3, 0.0])
        for n in (1, 2, 3, 5):
            t = build_level_table(r, bat, n)
            assert passive_energy_per_copy(t) == pytest.approx(
                brute_force_oracle(r, bat, n), abs=1e-12)

    def test_tie_independence(self):
        # equal probabilities and colliding energy sums: shuffling the
        # table rows must not change the matched value
        bat = BatterySpec(np.array([0.0, 1.0, 2.0]))
        r = np.array([0.25, 0.5, 0.25])
        t = build_level_table(r, bat, 6)
        reference = passive_energy_per_copy(t)
        rng = np.random.default_rng(99)
        for _ in range(10):
            perm = rng.permutation(len(t))
            shuffled = WeightedLevelTable(
                n=t.n, dim=t.dim, log_prob=t.log_prob[perm],
                energy=t.energy[perm], log_mult=t.log_mult[perm])
            assert abs(passive_energy_per_copy(shuffled) - reference) <= 1e-12


class TestExactOracle:
    """The merge against exact integer arithmetic, including sizes far
    beyond brute force."""

    @pytest.mark.parametrize("spectrum, energies, n", [
        (("0.538", "0.237", "0.224"), ("0", "0.579", "1"), 40),
        (("0.99", "0.006", "0.004"), ("0", "0.579", "1"), 40),
        # a zero eigenvalue
        (("0.7", "0.3", "0"), ("0", "0.3", "1"), 30),
        # integer ladder: ties among both probabilities and energies
        (("0.25", "0.5", "0.25"), ("0", "1", "2"), 30),
        # negative ground energy
        (("0.25", "0.35", "0.3", "0.1"), ("-0.5", "0.1", "0.7", "1.3"), 40),
        (("0.2", "0.8"), ("0", "1"), 40),
    ])
    def test_matches_exact_oracle(self, spectrum, energies, n):
        bat = BatterySpec(np.array([float(x) for x in energies]))
        r = np.array([float(x) for x in spectrum])
        for m in sorted({1, 2, 3, n // 2, n}):
            exact = float(exact_passive_energy_per_copy(spectrum, energies, m))
            got = passive_energy_per_copy(build_level_table(r, bat, m))
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_frozen_large_n(self, demo_battery):
        # count ladders above e^745: a rescaled linear count underflows here
        unit = np.array(DEMO_SPECTRUM) / sum(DEMO_SPECTRUM)
        cases = [(SKEWED_SPECTRUM, n, e) for n, e in SKEWED_E.items()]
        cases.append((unit, 800, UNIT_TRACE_DEMO_E800))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spectrum, n, exact in cases:
                t = build_level_table(spectrum, demo_battery, n)
                assert passive_energy_per_copy(t) == pytest.approx(
                    exact, rel=1e-10, abs=0.0)

    def test_corrupt_ladder_raises(self, demo_battery, monkeypatch):
        t = build_level_table(DEMO_SPECTRUM, demo_battery, 12)
        real = ensemble._log_ladder
        monkeypatch.setattr(ensemble, "_log_ladder",
                            lambda counts: real(counts) + 1e-9)
        with pytest.raises(NoConvergenceError, match="lost mass"):
            passive_energy_per_copy(t)

    def test_corrupt_energy_integral_raises(self, demo_battery, monkeypatch):
        # the third ladder is the energy integral F, which the mass check
        # never reads; doubling it pushes crossing means out of their rows
        t = build_level_table(DEMO_SPECTRUM, demo_battery, 12)
        real = ensemble._log_ladder
        calls = []

        def doubled_integral(counts):
            calls.append(counts.size)
            return real(counts) + (np.log(2.0) if len(calls) == 3 else 0.0)

        monkeypatch.setattr(ensemble, "_log_ladder", doubled_integral)
        with pytest.raises(NoConvergenceError, match="outside its energy rows"):
            passive_energy_per_copy(t)


class TestBruteForceOracle:
    def test_single_copy_identity(self, demo_battery, demo_passive_state):
        rep = passive_state(demo_passive_state, demo_battery)
        assert brute_force_oracle(DEMO_SPECTRUM, demo_battery, 1) == \
            pytest.approx(rep.passive_energy, abs=1e-15)

    def test_deterministic_spectrum(self):
        bat = BatterySpec(np.array([0.4, 1.0]))
        for n in (1, 3, 6):
            assert brute_force_oracle([1.0, 0.0], bat, n) == pytest.approx(0.4)

    def test_cap(self, demo_battery):
        with pytest.raises(CapExceededError):
            brute_force_oracle(DEMO_SPECTRUM, demo_battery, 20)  # 3^20 levels

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(2718)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            bat = random_battery(rng, d)
            r = rng.dirichlet(np.ones(d))
            for n in (1, 2, 4, 6):
                t = build_level_table(r, bat, n)
                assert passive_energy_per_copy(t) == pytest.approx(
                    brute_force_oracle(r, bat, n), abs=1e-10)


class TestCurve:
    def test_demo_reproduction(self, demo_battery, demo_anti_state):
        c = curve(demo_anti_state, demo_battery, 6)
        assert c.passive_energy[1] == pytest.approx(DEMO_PASSIVE_ENERGY,
                                                    abs=1e-12)
        assert c.passive_energy[2] == pytest.approx(DEMO_E2, abs=1e-12)
        assert c.asymptote == pytest.approx(DEMO_GIBBS_ENERGY, abs=1e-8)
        e = [c.passive_energy[n] for n in range(1, 7)]
        assert np.all(np.diff(e) < 0)
        for n in range(1, 7):
            assert c.work[n] == pytest.approx(
                c.initial_energy - c.passive_energy[n], abs=1e-15)

    def test_normalized_demo_stays_above_asymptote(self, demo_battery):
        # a true density matrix (exactly unit trace) obeys the bound at
        # every n; the verbatim published values do not, by 1e-3 deficit
        r = np.array(DEMO_SPECTRUM) / sum(DEMO_SPECTRUM)
        state = QuantumState.diagonal(r)
        c = curve(state, demo_battery, 32)
        gaps = [c.passive_energy[n] - c.asymptote for n in (1, 2, 4, 8, 16, 32)]
        assert all(g > 0 for g in gaps)
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_passive_qubit_is_flat_at_asymptote(self):
        bat = BatterySpec(np.array([0.0, 1.0]))
        state = QuantumState.diagonal([0.7, 0.3])
        c = curve(state, bat, 10)
        for n in range(1, 11):
            assert abs(c.passive_energy[n] - c.asymptote) <= 1e-9
            assert abs(c.work[n]) <= 1e-9

    def test_maximally_mixed_is_constant(self, demo_battery):
        state = QuantumState.diagonal(np.full(3, 1 / 3))
        c = curve(state, demo_battery, 8)
        for n in range(1, 9):
            assert c.passive_energy[n] == pytest.approx(MAXMIX_ENERGY, abs=1e-9)
            assert abs(c.work[n]) <= 1e-9

    def test_cap_exceeded_carries_partial(self, demo_battery, demo_anti_state):
        with pytest.raises(CapExceededError) as exc:
            curve(demo_anti_state, demo_battery, 10, cap=composition_count(4, 3))
        assert exc.value.largest_feasible_n == 4
        partial = exc.value.partial
        assert sorted(partial.passive_energy) == [1, 2, 3, 4]
        assert partial.passive_energy[1] == pytest.approx(DEMO_PASSIVE_ENERGY,
                                                          abs=1e-12)

    def test_structural_bounds_on_demo(self, demo_battery, demo_anti_state):
        c = curve(demo_anti_state, demo_battery, 12)
        e = c.passive_energy
        for n in e:
            for k in range(2, 12 // n + 1):
                assert e[k * n] <= e[n] + 1e-12
        for n in range(1, 12):
            assert e[n + 1] <= (n * e[n] + e[1]) / (n + 1) + 1e-12


class TestCompletePassivity:
    def test_gibbs_state_is_completely_passive(self, demo_battery):
        state = gibbs_state(demo_battery, 1.3).to_state()
        rep = complete_passivity_check(state, demo_battery, n_max=6)
        assert rep.is_gibbs_like
        assert rep.first_active_n is None
        assert rep.fit_beta == pytest.approx(1.3, abs=1e-10)
        assert rep.fit_residual <= 1e-12

    def test_demo_passive_state_activates_at_two(self, demo_battery,
                                                 demo_passive_state):
        rep = complete_passivity_check(demo_passive_state, demo_battery,
                                       n_max=4, tol=1e-9)
        assert not rep.is_gibbs_like
        assert rep.first_active_n == 2
        assert rep.work[2] == pytest.approx(DEMO_PASSIVE_ENERGY - DEMO_E2,
                                            abs=1e-12)
        assert rep.fit_residual > 0.01   # visibly non-thermal populations

    def test_pure_ground_state(self, demo_battery):
        state = QuantumState.diagonal([1.0, 0.0, 0.0])
        rep = complete_passivity_check(state, demo_battery, n_max=5)
        assert rep.is_gibbs_like
        assert rep.fit_beta == math.inf
        assert rep.fit_residual == 0.0

    def test_zero_population_is_never_thermal(self, demo_battery):
        state = QuantumState.diagonal([0.6, 0.4, 0.0])
        rep = complete_passivity_check(state, demo_battery, n_max=3)
        assert rep.fit_residual == math.inf

    def test_work_is_the_curves(self, demo_battery, demo_anti_state):
        rng = np.random.default_rng(29)
        cases = [(demo_anti_state, demo_battery, 8)]
        for _ in range(20):
            d = int(rng.integers(2, 6))
            cases.append((random_diagonal_state(rng, d), random_battery(rng, d),
                          int(rng.integers(2, 8))))
        for state, bat, n_max in cases:
            work = curve(state, bat, n_max).work
            assert complete_passivity_check(state, bat, n_max).work == work

    def test_cap_exceeded_carries_partial(self, demo_battery, demo_anti_state):
        with pytest.raises(CapExceededError) as exc:
            complete_passivity_check(demo_anti_state, demo_battery, 10,
                                     cap=composition_count(4, 3))
        assert exc.value.largest_feasible_n == 4
        assert exc.value.partial.work == curve(demo_anti_state, demo_battery,
                                               4).work

    def test_entropy_above_ln_d(self):
        bat = BatterySpec(np.array(OVERFULL_ENERGIES))
        state = QuantumState.diagonal(OVERFULL_POPULATIONS)
        rep = complete_passivity_check(state, bat, n_max=4)
        assert sorted(rep.work) == [1, 2, 3, 4]

    def test_dimension_mismatch(self, demo_passive_state):
        with pytest.raises(DimensionMismatchError):
            complete_passivity_check(demo_passive_state,
                                     BatterySpec(np.array([0.0, 1.0])), 3)

    def test_requires_diagonal_state(self, demo_battery):
        rho = np.diag([0.6, 0.25, 0.15]).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.02
        with pytest.raises(NotDiagonalError):
            complete_passivity_check(QuantumState.full(rho), demo_battery, 3)

    def test_requires_n_max_at_least_two(self, demo_battery,
                                         demo_passive_state):
        with pytest.raises(ValidationError):
            complete_passivity_check(demo_passive_state, demo_battery, n_max=1)


class TestProductHelpers:
    def test_product_energies(self):
        bat = BatterySpec(np.array([0.0, 1.0]))
        np.testing.assert_allclose(product_energies(bat, 2), [0, 1, 1, 2])

    def test_product_populations(self):
        p = product_populations([0.7, 0.3], 2)
        np.testing.assert_allclose(p, [0.49, 0.21, 0.21, 0.09], atol=1e-15)

    def test_caps(self):
        bat = BatterySpec(np.arange(10.0))
        with pytest.raises(CapExceededError):
            product_energies(bat, 9)
        with pytest.raises(CapExceededError):
            product_populations(np.full(10, 0.1), 9)


class TestEnvironmentCap:
    def test_env_override(self, demo_battery, monkeypatch):
        monkeypatch.setenv("ERGOKIT_MAX_COMPOSITIONS", "5")
        with pytest.raises(CapExceededError):
            build_level_table(DEMO_SPECTRUM, demo_battery, 10)
        monkeypatch.setenv("ERGOKIT_MAX_COMPOSITIONS", "1000")
        build_level_table(DEMO_SPECTRUM, demo_battery, 10)
