import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (DEMO_E2, DEMO_ENERGIES, DEMO_GIBBS_ENERGY,
                      DEMO_PASSIVE_ENERGY, DEMO_SPECTRUM, MAXMIX_ENERGY,
                      OVERFULL_ENERGIES, OVERFULL_POPULATIONS, SKEWED_E,
                      SKEWED_SPECTRUM, UNIT_TRACE_DEMO_E800, random_battery,
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
            np.testing.assert_array_equal(K, np.array(expected).reshape(-1, d).T)
            assert K.shape == (d, composition_count(n, d))
            assert K.dtype == np.min_scalar_type(n)
            assert not K.flags.writeable

    def test_log_mult_matches_exact_multinomial(self):
        # exact integer multinomials; a battery needs at least two levels
        for d in (2, 3, 4):
            bat = BatterySpec(np.arange(float(d)))
            for n in range(1, 31):
                exact = [math.log(math.factorial(n) // math.prod(
                    math.factorial(int(k)) for k in column))
                    for column in _composition_matrix(n, d).T]
                t = build_level_table(np.full(d, 1.0 / d), bat, n)
                np.testing.assert_allclose(t.log_mult, exact, rtol=1e-13,
                                           atol=0.0)
                assert t.log_mult.shape == (composition_count(n, d),)
                assert not t.log_mult.flags.writeable

    @pytest.mark.parametrize("d, n", [(3, 300), (8, 14), (3, 1024), (2, 70_000)])
    def test_large_n_is_every_composition_in_order(self, d, n):
        # distinct columns summing to n, as many as there are compositions,
        # in strictly increasing lexicographic order: exactly the enumeration
        K = _composition_matrix(n, d)
        assert K.dtype == np.min_scalar_type(n)
        assert K.shape == (d, math.comb(n + d - 1, d - 1))
        assert (K.sum(axis=0, dtype=np.int64) == n).all()
        # each entry is then at most n: read each column as mixed-radix n + 1
        value = np.zeros(K.shape[1], dtype=np.int64)
        for k in K:
            value *= n + 1
            value += k
        assert (np.diff(value) > 0).all()

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

    def test_cap_exceeded(self, demo_battery, monkeypatch):
        monkeypatch.setattr(ensemble, "TABLE_BYTE_BUDGET",
                            5 * ensemble.TABLE_BYTES_PER_ROW)
        with pytest.raises(CapExceededError) as exc:
            build_level_table(DEMO_SPECTRUM, demo_battery, 10)
        assert exc.value.required == (composition_count(10, 3)
                                      * ensemble.TABLE_BYTES_PER_ROW)
        assert exc.value.cap == 5 * ensemble.TABLE_BYTES_PER_ROW

    @pytest.mark.parametrize("d, n, zero_level", [(6, 24, False),
                                                  (8, 14, False),
                                                  (3, 40, True)])
    def test_rows_are_left_to_right_scalar_sums(self, d, n, zero_level):
        rng = np.random.default_rng(1000 * d + n)
        r = rng.dirichlet(np.ones(d))
        if zero_level:
            r[1], r[0] = 0.0, r[0] + r[1]
        bat = random_battery(rng, d, ground=-0.5)
        t = build_level_table(r, bat, n)
        K = _composition_matrix(n, d)
        log_r = [math.log(x) if x > 0.0 else 0.0 for x in r]
        eps = bat.energies.tolist()
        log_fact = [math.lgamma(k + 1) for k in range(n + 1)]
        rows = range(0, len(t), 7)
        want_lp, want_e, want_lm = [], [], []
        for i in rows:
            k = K[:, i].tolist()
            used_zero = any(kj > 0 and rj == 0.0 for kj, rj in zip(k, r))
            want_lp.append(-math.inf if used_zero
                           else sum(kj * x for kj, x in zip(k, log_r)))
            want_e.append(sum(kj * x for kj, x in zip(k, eps)))
            want_lm.append(log_fact[n] - sum(log_fact[kj] for kj in k))
        for got, want in ((t.log_prob, want_lp), (t.energy, want_e),
                          (t.log_mult, want_lm)):
            assert got[rows.start::rows.step].tobytes() == np.array(want).tobytes()

    def test_wide_counts_do_not_wrap(self):
        # n above the uint16 range: a narrower count dtype would wrap
        n = 70_000
        bat = BatterySpec(np.array([0.25, 1.3]))
        t = build_level_table([0.6, 0.4], bat, n)
        assert len(t) == n + 1
        # lexicographic rows run from (0, n) to (n, 0)
        assert t.energy[0] == n * 1.3
        assert t.energy[-1] == n * 0.25
        assert t.log_mult[0] == t.log_mult[-1] == 0.0

    def test_byte_budget_refuses_before_enumerating(self, demo_battery,
                                                    monkeypatch):
        # 800 rows' worth, below the 861 rows of n = 40 at any estimate
        budget = 800 * ensemble.TABLE_BYTES_PER_ROW
        monkeypatch.setattr(ensemble, "TABLE_BYTE_BUDGET", budget)
        enumerated = []
        real = ensemble._composition_matrix

        def spy(n, d):
            enumerated.append(composition_count(n, d))
            return real(n, d)

        monkeypatch.setattr(ensemble, "_composition_matrix", spy)
        misses = ensemble._compositions.misses
        with pytest.raises(CapExceededError) as exc:
            build_level_table(DEMO_SPECTRUM, demo_battery, 40)
        assert exc.value.required == 861 * ensemble.TABLE_BYTES_PER_ROW
        assert exc.value.cap == budget
        assert "byte budget" in str(exc.value)
        assert ensemble._compositions.misses == misses
        assert enumerated == []
        # a curve stops at the last n whose estimate fits: C(n + 2, 2) rows
        # of TABLE_BYTES_PER_ROW bytes each
        last_fit = max(n for n in range(1, 41) if math.comb(n + 2, 2)
                       * ensemble.TABLE_BYTES_PER_ROW <= budget)
        with pytest.raises(CapExceededError) as exc:
            curve(QuantumState.diagonal(DEMO_SPECTRUM), demo_battery, 40)
        assert exc.value.largest_feasible_n == last_fit
        assert all(rows * ensemble.TABLE_BYTES_PER_ROW <= budget
                   for rows in enumerated)

    def test_bad_spectrum(self, demo_battery):
        with pytest.raises(ValidationError):
            build_level_table([0.5, 0.3, 0.1], demo_battery, 2)
        with pytest.raises(ValidationError):
            build_level_table([1.1, -0.1, 0.0], demo_battery, 2)
        # NaN fails every comparison, so it passes the sign and trace checks
        for entry in (build_level_table, brute_force_oracle):
            with pytest.raises(ValidationError, match="finite"):
                entry([math.nan, 0.5, 0.5], demo_battery, 2)

    def test_tied_key_sort_holds_one_order(self):
        # a tied key is sorted twice; the plain argsort's int64 order is
        # freed before the stable sort makes its own
        t = build_level_table([0.25, 0.5, 0.25], BatterySpec(np.arange(3.0)), 1024)
        key = np.array(t.energy)
        assert np.unique(key).size < key.size
        out, flags = np.empty(key.size), np.empty(key.size, dtype=bool)
        tracemalloc.start()
        try:
            order, _ = ensemble._sort_order(key, out, flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(order, key.argsort(kind="stable"))
        assert peak <= 9 * key.size, f"{peak / key.size:.1f} bytes per row"

    @pytest.mark.parametrize("d, n", [(8, 14), (6, 24), (3, 1024)])
    def test_bytes_per_row_bound_the_peak(self, d, n, monkeypatch):
        # the byte budget refuses tables by this estimate, so it must
        # cover the real peak of an uncached build plus its merge
        monkeypatch.setattr(ensemble, "_compositions",
                            ensemble._CompositionCache())
        r = np.random.default_rng(100 * d + n).dirichlet(np.ones(d))
        tracemalloc.start()
        try:
            t = build_level_table(r, BatterySpec(np.arange(float(d))), n)
            passive_energy_per_copy(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(t) > 100_000
        assert peak <= ensemble.TABLE_BYTES_PER_ROW * len(t), \
            f"{peak / len(t):.1f} bytes per row"


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

    @pytest.mark.parametrize("spectrum, n", [(SKEWED_SPECTRUM, 181),
                                             ((0.7, 0.3, 0.0), 30)])
    def test_leaves_the_table_as_it_is(self, demo_battery, spectrum, n):
        # under curve the merge takes its table's rows over; a table
        # passed alone must come back byte for byte
        t = build_level_table(spectrum, demo_battery, n)
        arrays = (t.log_prob, t.energy, t.log_mult)
        before = [a.tobytes() for a in arrays]
        passive_energy_per_copy(t)
        assert [a.tobytes() for a in arrays] == before
        assert not any(a.flags.writeable for a in arrays)

    def test_chunks_move_no_bit(self, demo_battery, monkeypatch):
        # the unit-trace demo at n = 181: 16,653 rows in three chunks, and
        # the interval that opens the second crosses energy rows, so its
        # mean starts from the first chunk's last A
        r = np.array(DEMO_SPECTRUM) / sum(DEMO_SPECTRUM)
        t = build_level_table(r, demo_battery, 181)
        chunk = ensemble.MERGE_CHUNK
        assert len(t) > 2 * chunk
        assert chunk in _crossing_intervals(t)
        bits = set()
        for size in (chunk, 1000, 2**40):
            monkeypatch.setattr(ensemble, "MERGE_CHUNK", size)
            bits.add(passive_energy_per_copy(t).hex())
        assert len(bits) == 1

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_windowed_lookup_is_the_whole_search(self, monkeypatch, chunk):
        # a zero eigenvalue, so P is shorter than Q, on tied integer
        # energies; P then also takes Q's values twice over (ties), and
        # one ulp past Q's end, which the clamp holds in the last row
        t = build_level_table((0.5, 0.3, 0.2, 0.0), BatterySpec(np.arange(4.0)), 20)
        m = int(np.count_nonzero(t.log_prob > -np.inf))
        assert m < len(t)
        P = ensemble._log_ladder(t.log_mult[np.argsort(-t.log_prob, kind="stable")][:m])
        Q = ensemble._log_ladder(t.log_mult[np.argsort(t.energy, kind="stable")])
        P = np.concatenate([[-np.inf], np.sort(np.concatenate(
            [P[1:], Q[1::5], Q[1::5], [np.nextafter(Q[-1], np.inf)]]))])
        want = np.minimum(Q[1:].searchsorted(P), len(t) - 1)
        assert want[-1] == len(t) - 1 and Q[1:].searchsorted(P[-1]) == len(t)
        monkeypatch.setattr(ensemble, "MERGE_CHUNK", chunk)
        starts = []
        for s, t_end, g_at in ensemble._chunk_rows(P, Q, P.size - 1):
            starts.append(s)
            assert np.array_equal(g_at, want[s:t_end + 1])
        assert starts == list(range(0, P.size - 1, chunk))

    @pytest.mark.parametrize("rows, ground", [(40, 3), (3000, 3), (9000, 3),
                                              (40, 40)])
    def test_ground_ties_lead_the_integral(self, rows, ground):
        # F is -inf through every row tied with the lowest energy: a
        # hand-made table may tie several rows there, or all of them
        rng = np.random.default_rng(rows + ground)
        p = rng.dirichlet(np.ones(rows))
        energy = rng.uniform(0.0, 1.0, rows)
        energy[rng.choice(rows, ground, replace=False)] = energy.min()
        t = WeightedLevelTable(n=1, dim=rows, log_prob=np.log(p), energy=energy,
                               log_mult=np.zeros(rows))
        want = float(np.dot(np.sort(p)[::-1], np.sort(energy)))
        assert passive_energy_per_copy(t) == pytest.approx(want, rel=1e-12, abs=0.0)


def _crossing_intervals(t):
    """The probability rows i (log_prob descending) whose count interval
    [P_i, P_(i+1)) crosses a boundary between energy rows."""
    m = int(np.count_nonzero(t.log_prob > -np.inf))
    P = ensemble._log_ladder(t.log_mult[np.argsort(-t.log_prob, kind="stable")][:m])
    Q = ensemble._log_ladder(t.log_mult[np.argsort(t.energy, kind="stable")])
    ends = np.minimum(Q[1:].searchsorted(P[1:]), len(t) - 1)
    return set(np.nonzero(Q[ends] > P[:-1])[0].tolist())


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
        # ladders of one linear block (up to LADDER_ONE_BLOCK rows): the
        # tied integer ladder (5,151 rows), a zero eigenvalue whose P
        # ladder (91 rows) is shorter than Q (4,186) and the skewed
        # spectrum (7,381)
        (("0.25", "0.5", "0.25"), ("0", "1", "2"), 100),
        (("0.7", "0.3", "0"), ("0", "0.3", "1"), 90),
        (("0.99", "0.006", "0.004"), ("0", "0.579", "1"), 120),
        # past one block: LADDER_BLOCK-row blocks with joins (8,646 rows)
        (("0.99", "0.006", "0.004"), ("0", "0.579", "1"), 130),
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
                            lambda counts, out=None, **kw: real(counts, out, **kw) + 1e-9)
        with pytest.raises(NoConvergenceError, match="lost mass"):
            passive_energy_per_copy(t)

    def test_corrupt_energy_integral_raises(self, demo_battery, monkeypatch):
        # the third ladder is the energy integral F, which the mass check
        # never reads; doubling it pushes crossing means out of their rows
        t = build_level_table(DEMO_SPECTRUM, demo_battery, 12)
        real = ensemble._log_ladder
        calls = []

        def doubled_integral(counts, out=None, **kw):
            calls.append(counts.size)
            return real(counts, out, **kw) + (np.log(2.0) if len(calls) == 3 else 0.0)

        monkeypatch.setattr(ensemble, "_log_ladder", doubled_integral)
        with pytest.raises(NoConvergenceError, match="outside its energy rows"):
            passive_energy_per_copy(t)


def _ladder_input(size, lead=3):
    """ln counts of about e^+-30 with a leading run of lead -inf entries
    and -inf inside the last block; a lead past one block also puts -inf
    at every 97th entry after it. The size above 4 blocks also has counts
    near e^-1000 that end halfway through block 2 (so that block spans
    more than LADDER_LINEAR_SPAN) and a block 3 whose counts exceed
    everything before it."""
    block = ensemble.LADDER_BLOCK
    x = np.random.default_rng(size).uniform(-30.0, 30.0, size)
    x[:lead] = -np.inf
    x[size - 5:size - 3] = -np.inf
    if lead > block:
        x[lead + 1::97] = -np.inf
    if size > 4 * block:
        x[:2 * block + block // 2] -= 1000.0
        x[3 * block:4 * block] += 100.0
    return x


def _regime_input(regime):
    """ln counts that _log_ladder sums in the given regime: accumulated in
    logs under LADDER_LOG_ROWS rows ("log"), one linear block ("one_block"),
    accumulated in logs past LADDER_LINEAR_SPAN ("wide_log": a d = 2
    table's counts at n = 1500, 1,501 rows spanning about 1,036), or in
    blocks, one of them accumulated in logs ("blocks")."""
    if regime == "wide_log":
        t = build_level_table([0.5, 0.5], BatterySpec(np.array([0.0, 1.0])), 1500)
        x = t.log_mult[np.argsort(t.energy, kind="stable")]
        assert x.size < ensemble.LADDER_BLOCK
        assert x.max() - x.min() > ensemble.LADDER_LINEAR_SPAN
        return x
    size = {"log": 200, "one_block": 3003, "blocks": 5 * 2048 + 3}[regime]
    x = np.random.default_rng(size).uniform(-30.0, 30.0, size)
    if regime == "blocks":
        x[:2 * 2048 + 1024] -= 1000.0
        assert not ensemble._linear_blocks(x[:-3].reshape(-1, 2048))[1].all()
    return x


def _mpmath_ladder(log_counts):
    """ln of the cumulative counts, summed at 40 digits."""
    total, out = mpmath.mpf(0), []
    with mpmath.workdps(40):
        for x in log_counts.tolist():
            if x != -math.inf:
                total += mpmath.exp(x)
            out.append(float(mpmath.log(total)) if total else -math.inf)
    return np.array(out)


def _one_block(x):
    """x's ladder as one linear block, top + ln(cumsum(exp(x - top)))."""
    top = x.max()
    with np.errstate(divide="ignore"):
        return top + np.log(np.cumsum(np.exp(x - top)))


class TestLogLadder:
    """The count ladder against mpmath in its three regimes: accumulated
    in logs, one linear block, and blocks with joins."""

    @pytest.mark.parametrize("size, lead", [
        *(pytest.param(size, 3, id=str(size))
          for size in (255, 256, 2047, 2048, 2049, 8192, 8193, 5 * 2048 + 3)),
        # a leading -inf run through the whole first block and into the
        # second, then -inf inside the linear blocks after it
        pytest.param(3 * 2048 + 7, 2048 + 100, id="6151-lead2148")])
    def test_matches_mpmath(self, size, lead):
        x = _ladder_input(size, lead)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ladder = ensemble._log_ladder(x)
        assert ladder.size == size + 1 and ladder[0] == -np.inf
        got, want = ladder[1:], _mpmath_ladder(x)
        if size < ensemble.LADDER_LOG_ROWS:
            assert np.array_equal(got, np.logaddexp.accumulate(x))
        assert np.array_equal(got == -np.inf, want == -np.inf)
        finite = want > -np.inf
        # the merge's slack: rows * eps * (1 + |ln count|), relative
        bound = size * np.finfo(float).eps * (1.0 + np.abs(want[finite]).max())
        assert np.abs(got[finite] - want[finite]).max() <= bound
        assert (got[1:] >= got[:-1]).all()

    @pytest.mark.parametrize("size, lead", [(256, 40), (3003, 84), (8192, 1000)])
    def test_one_block_with_a_leading_run(self, size, lead):
        # like F's ground rows: ln(count * 0) = -inf leads the ladder
        x = _ladder_input(size, lead)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ensemble._log_ladder(x)[1:]
        assert np.array_equal(got, _one_block(x))
        want = _mpmath_ladder(x)
        assert (got[:lead] == -np.inf).all() and (got[lead:] > -np.inf).all()
        bound = size * np.finfo(float).eps * (1.0 + np.abs(want[lead:]).max())
        assert np.abs(got[lead:] - want[lead:]).max() <= bound

    @pytest.mark.parametrize("size", [300, 2047, 2048, 8192])
    def test_wide_ladders_keep_their_kernel(self, size):
        # finite counts spanning more than LADDER_LINEAR_SPAN: logaddexp
        # under LADDER_BLOCK rows, the blocks from there on
        x = _ladder_input(size)
        x[size // 3] = x.max() - ensemble.LADDER_LINEAR_SPAN - 1.0
        got = ensemble._log_ladder(x)[1:]
        want = np.empty(size)
        if size < ensemble.LADDER_BLOCK:
            np.logaddexp.accumulate(x, out=want)
        else:
            ensemble._blocked_ladder(x, want)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, _one_block(x))

    def test_past_one_block_keeps_the_blocks(self):
        # narrow counts that one block would take, one row too many
        x = np.random.default_rng(7).uniform(-30.0, 30.0,
                                             ensemble.LADDER_ONE_BLOCK + 1)
        x[:3] = -np.inf
        want = np.empty(x.size)
        ensemble._blocked_ladder(x, want)
        assert np.array_equal(ensemble._log_ladder(x)[1:], want)

    @pytest.mark.parametrize("regime", ["log", "one_block", "wide_log", "blocks"])
    @pytest.mark.parametrize("lead", [0, 5])
    def test_in_place_with_a_lead_keeps_the_bits(self, regime, lead):
        # the merge writes F over its own counts, the ladder starting one
        # entry before them, and leaves the lead ground rows' counts as
        # they were: the ladder sets them to -inf
        x = _regime_input(regime)
        x[:lead] = -np.inf
        want = ensemble._log_ladder(x)
        row = np.empty(x.size + 1)
        row[1:] = x
        row[1:lead + 1] = 7.0
        got = ensemble._log_ladder(row[1:], row, lead=lead)
        assert got is row
        assert np.array_equal(row, want)

    def test_linear_blocks_span_at_most_the_limit(self):
        x = _ladder_input(5 * 2048 + 3)
        wide = 0
        for blocks in ensemble._ladder_blocks(x):
            _, linear = ensemble._linear_blocks(blocks)
            for block, is_linear in zip(blocks, linear):
                finite = block[block > -np.inf]
                span = finite.max() - finite.min()
                assert is_linear == (span <= ensemble.LADDER_LINEAR_SPAN)
                wide += not is_linear
        # block 2 is the wide one; blocks 0 and 4 hold -inf and are linear
        assert wide == 1
        # a block of -inf alone is linear: it adds nothing
        assert ensemble._linear_blocks(np.full((1, 8), -np.inf))[1].all()

    def test_nondecreasing_across_joins(self, demo_battery):
        # on the skewed n = 800 table (321,201 rows, 157 blocks) some
        # blocks' ends and the carries after them round apart
        t = build_level_table(SKEWED_SPECTRUM, demo_battery, 800)
        energy_order = t.energy.argsort(kind="stable")
        excess = t.energy[energy_order] - t.energy.min()
        with np.errstate(divide="ignore"):
            integral = t.log_mult[energy_order] + np.log(excess)
        for log_counts in (t.log_mult[(-t.log_prob).argsort(kind="stable")],
                           t.log_mult[energy_order], integral):
            ladder = ensemble._log_ladder(log_counts)
            assert (ladder[1:] >= ladder[:-1]).all()


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

    def test_cap_exceeded_carries_partial(self, demo_battery, demo_anti_state,
                                          monkeypatch):
        monkeypatch.setattr(ensemble, "TABLE_BYTE_BUDGET",
                            composition_count(4, 3) * ensemble.TABLE_BYTES_PER_ROW)
        with pytest.raises(CapExceededError) as exc:
            curve(demo_anti_state, demo_battery, 10)
        assert exc.value.largest_feasible_n == 4
        partial = exc.value.partial
        assert sorted(partial.passive_energy) == [1, 2, 3, 4]
        assert partial.passive_energy[1] == pytest.approx(DEMO_PASSIVE_ENERGY,
                                                          abs=1e-12)

    @pytest.mark.parametrize("spectrum, energies, n_max", [
        # a zero eigenvalue: the P ladder is shorter than Q
        ((0.7, 0.3, 0.0), (0.0, 0.3, 1.0), 30),
        # tied integer ladder (stable sorts); 2,556 rows at n = 70, one
        # linear ladder block
        ((0.25, 0.5, 0.25), (0.0, 1.0, 2.0), 70),
        # the unit-trace demo: three merge chunks at n = 181, a crossing
        # interval opening the second (test_chunks_move_no_bit)
        (tuple(np.array(DEMO_SPECTRUM) / sum(DEMO_SPECTRUM)), DEMO_ENERGIES, 181),
    ])
    def test_workspace_gives_the_fresh_tables_bits(self, spectrum, energies,
                                                   n_max):
        # curve reuses one workspace from n_max down; a stale entry left by
        # a larger n would change some e(n)
        state = QuantumState.diagonal(spectrum)
        bat = BatterySpec(np.array(energies))
        e = curve(state, bat, n_max).passive_energy
        assert list(e) == list(range(1, n_max + 1))
        _assert_fresh_bits(e, state, bat)

    def test_cap_stopped_partial_has_the_fresh_tables_bits(self, demo_battery,
                                                           monkeypatch):
        # 2,145 rows at n = 64
        monkeypatch.setattr(ensemble, "TABLE_BYTE_BUDGET",
                            composition_count(64, 3) * ensemble.TABLE_BYTES_PER_ROW)
        state = QuantumState.diagonal(SKEWED_SPECTRUM)
        with pytest.raises(CapExceededError) as exc:
            curve(state, demo_battery, 100)
        assert exc.value.largest_feasible_n == 64
        assert exc.value.required == (composition_count(65, 3)
                                      * ensemble.TABLE_BYTES_PER_ROW)
        assert "curve stopped at n=65" in str(exc.value)
        e = exc.value.partial.passive_energy
        assert list(e) == list(range(1, 65))
        _assert_fresh_bits(e, state, demo_battery)

    def test_back_to_back_curves_of_different_d(self):
        rng = np.random.default_rng(1515)
        for d, n_max in ((6, 9), (3, 40), (6, 9)):
            state = random_diagonal_state(rng, d)
            bat = random_battery(rng, d)
            _assert_fresh_bits(curve(state, bat, n_max).passive_energy, state, bat)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot of about 10,000 entries or more across its
        # threads; the unit-trace demo's tables pass that from n = 141
        script = (
            "import numpy as np\n"
            "from ergokit import BatterySpec, QuantumState, curve\n"
            f"r = np.array({DEMO_SPECTRUM}); r /= r.sum()\n"
            f"bat = BatterySpec(np.array({DEMO_ENERGIES}))\n"
            "c = curve(QuantumState.diagonal(r), bat, 200)\n"
            "print(*(e.hex() for e in c.passive_energy.values()))\n")
        runs = [subprocess.run([sys.executable, "-c", script],
                               env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                               capture_output=True, text=True, check=True).stdout
                for threads in ("1", "2")]
        assert len(runs[0].split()) == 200
        assert runs[0] == runs[1]

    def test_workspace_holds_six_float_rows(self):
        # F is written over its own counts, so no seventh row is needed
        assert ensemble._Workspace(100).floats.shape == (6, 104)

    @pytest.mark.parametrize("d, n_max", [(8, 14), (6, 24)])
    def test_peak_within_the_byte_estimate(self, d, n_max, monkeypatch):
        # with its compositions cached, a whole curve stays within the
        # estimate that the byte budget applies to its largest table; the
        # one entry of d serves every n
        monkeypatch.setattr(ensemble, "_compositions",
                            ensemble._CompositionCache())
        ensemble._compositions.get(n_max, d)
        r = np.random.default_rng(100 * d + n_max).dirichlet(np.ones(d))
        state, bat = QuantumState.diagonal(r), BatterySpec(np.arange(float(d)))
        tracemalloc.start()
        try:
            curve(state, bat, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = composition_count(n_max, d)
        assert peak <= ensemble.TABLE_BYTES_PER_ROW * rows, \
            f"{peak / rows:.1f} bytes per row"

    def test_structural_bounds_on_demo(self, demo_battery, demo_anti_state):
        c = curve(demo_anti_state, demo_battery, 12)
        e = c.passive_energy
        for n in e:
            for k in range(2, 12 // n + 1):
                assert e[k * n] <= e[n] + 1e-12
        for n in range(1, 12):
            assert e[n + 1] <= (n * e[n] + e[1]) / (n + 1) + 1e-12


def _assert_fresh_bits(e, state, bat):
    """Each e(n) of a curve equals the merge of a freshly built table."""
    r = state.spectrum_descending
    for n, value in e.items():
        fresh = passive_energy_per_copy(build_level_table(r, bat, n))
        assert value.hex() == fresh.hex(), n


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
        rep = complete_passivity_check(demo_passive_state, demo_battery, n_max=4)
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

    def test_cap_exceeded_carries_partial(self, demo_battery, demo_anti_state,
                                          monkeypatch):
        monkeypatch.setattr(ensemble, "TABLE_BYTE_BUDGET",
                            composition_count(4, 3) * ensemble.TABLE_BYTES_PER_ROW)
        with pytest.raises(CapExceededError) as exc:
            complete_passivity_check(demo_anti_state, demo_battery, 10)
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

    def test_one_level_state_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            complete_passivity_check(QuantumState.full([[1.0]]),
                                     BatterySpec(np.array([0.0, 1.0])), 4)

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

    def test_zero_copies_rejected(self):
        with pytest.raises(ValidationError):
            product_energies(BatterySpec(np.array([0.0, 1.0])), 0)
        with pytest.raises(ValidationError):
            product_populations([0.7, 0.3], 0)

    def test_caps(self):
        bat = BatterySpec(np.arange(10.0))
        with pytest.raises(CapExceededError):
            product_energies(bat, 9)
        with pytest.raises(CapExceededError):
            product_populations(np.full(10, 0.1), 9)


def _held_bytes(cache):
    return sum(a.nbytes for entry in cache.entries.values() for a in entry)


class TestCompositionCache:
    """One entry per d: the counts of the largest n enumerated for it and
    ln k! for k = 0..n."""

    def test_one_entry_per_d(self):
        cache = ensemble._CompositionCache()
        for n, d in ((5, 3), (4, 2), (3, 3), (5, 3), (1, 2)):
            counts, log_fact = cache.get(n, d)
        assert set(cache.entries) == {2, 3}
        assert cache.misses == 2
        assert cache.entries[3][0].shape == (3, composition_count(5, 3))
        assert cache.nbytes == _held_bytes(cache)
        assert not counts.flags.writeable and not log_fact.flags.writeable
        assert log_fact.tobytes() == np.array(
            [math.lgamma(k + 1) for k in range(5)]).tobytes()

    def test_a_larger_n_replaces_the_entry(self):
        cache = ensemble._CompositionCache()
        small = cache.get(5, 3)
        large = cache.get(9, 3)
        assert cache.entries == {3: large} and large is not small
        assert large[1].size == 10
        assert cache.nbytes == _held_bytes(cache)
        assert cache.misses == 2

    def test_a_smaller_n_is_served_with_no_miss(self):
        cache = ensemble._CompositionCache()
        entry = cache.get(20, 4)
        assert all(cache.get(n, 4) is entry for n in range(1, 21))
        assert cache.misses == 1

    def test_too_large_is_returned_not_kept(self, monkeypatch):
        # n = 10 at d = 3 holds 286 bytes, n = 200 holds 62,511
        monkeypatch.setattr(ensemble, "COMPOSITION_CACHE_BYTES", 10_000)
        cache = ensemble._CompositionCache()
        small = cache.get(10, 3)
        counts, log_fact = cache.get(200, 3)
        assert counts.shape == (3, composition_count(200, 3))
        assert log_fact.size == 201
        assert cache.entries == {3: small}
        assert cache.nbytes == _held_bytes(cache) == 286
        assert cache.misses == 2

    def test_bytes_stay_under_the_bound_across_a_d8_curve(self, monkeypatch):
        bound = 2**19
        monkeypatch.setattr(ensemble, "COMPOSITION_CACHE_BYTES", bound)
        cache = ensemble._CompositionCache()
        monkeypatch.setattr(ensemble, "_compositions", cache)
        bat = BatterySpec(np.arange(8.0))
        r = np.full(8, 0.125)
        cache.get(20, 6)
        for n in range(1, 15):
            build_level_table(r, bat, n)
            assert cache.nbytes == _held_bytes(cache) <= bound
        # n = 13 and 14 (620,272 and 930,360 bytes) are returned but not
        # kept, and the d = 6 entry (318,948 bytes) was evicted to make
        # room for n = 12 (403,208 bytes)
        assert cache.misses == 15
        assert set(cache.entries) == {8}
        assert cache.entries[8][1].size == 13
        build_level_table(r, bat, 12)
        assert cache.misses == 15

    def test_default_bound_holds_a_full_d8_curve(self):
        curve(QuantumState.diagonal(np.full(8, 0.125)),
              BatterySpec(np.arange(8.0)), 14)
        cache = ensemble._compositions
        assert cache.nbytes <= ensemble.COMPOSITION_CACHE_BYTES
        assert cache.entries[8][1].size > 14

    def test_a_curve_leaves_one_entry(self, monkeypatch):
        cache = ensemble._CompositionCache()
        monkeypatch.setattr(ensemble, "_compositions", cache)
        curve(QuantumState.diagonal(SKEWED_SPECTRUM),
              BatterySpec(np.array([0.0, 0.579, 1.0])), 200)
        assert set(cache.entries) == {3}
        assert cache.misses == 1


class TestNestedTables:
    """A curve enumerates only its largest n, every table reads its counts
    from that entry, and each merge hands its sort orders down to the
    next, smaller table; none of it may move a bit."""

    @staticmethod
    def _assert_read_down(monkeypatch, r, bat, larger, ns):
        """Each table of n in ns, read from the entry of larger, equals
        the table built from a fresh enumeration of n."""
        d = bat.dim
        cache = ensemble._CompositionCache()
        cache.get(larger, d)
        for n in ns:
            monkeypatch.setattr(ensemble, "_compositions", cache)
            read = build_level_table(r, bat, n)
            fresh_cache = ensemble._CompositionCache()
            monkeypatch.setattr(ensemble, "_compositions", fresh_cache)
            fresh = build_level_table(r, bat, n)
            assert fresh_cache.entries[d][1].size == n + 1
            for name in ("log_prob", "energy", "log_mult"):
                assert (getattr(read, name).tobytes()
                        == getattr(fresh, name).tobytes()), (n, name)
        assert cache.misses == 1 and set(cache.entries) == {d}
        return cache

    @pytest.mark.parametrize("d, larger", [(2, 40), (3, 40), (6, 14)])
    def test_tables_read_from_a_larger_entry_equal_fresh_ones(
            self, monkeypatch, d, larger):
        rng = np.random.default_rng(1700 + d)
        r, bat = rng.dirichlet(np.ones(d)), random_battery(rng, d)
        self._assert_read_down(monkeypatch, r, bat, larger,
                               range(1, larger + 1))

    def test_reading_down_crosses_the_count_dtype(self, monkeypatch):
        # n' = 300 counts in uint16, n <= 255 in uint8; the zero first
        # level checks k_1 after it is lowered
        bat = BatterySpec(np.array([0.0, 0.4, 1.3]))
        cache = self._assert_read_down(monkeypatch, [0.0, 0.7, 0.3], bat, 300,
                                       (299, 256, 255, 254, 128, 1))
        assert cache.entries[3][0].dtype == np.uint16
        assert _composition_matrix(255, 3).dtype == np.uint8

    def test_a_fresh_curve_enumerates_once(self, monkeypatch):
        monkeypatch.setattr(ensemble, "_compositions", ensemble._CompositionCache())
        enumerated = []
        real = ensemble._composition_matrix
        monkeypatch.setattr(ensemble, "_composition_matrix",
                            lambda n, d: enumerated.append((n, d)) or real(n, d))
        rng = np.random.default_rng(1701)
        curve(random_diagonal_state(rng, 5), random_battery(rng, 5), 16)
        assert enumerated == [(16, 5)]

    @staticmethod
    def _curve_against_ascending_tables(monkeypatch, state, bat, n_max):
        """curve's e(n), with _sort_order's calls during it, after checking
        them against tables built one at a time, n ascending, in a fresh
        empty cache."""
        sorts = []
        real = ensemble._sort_order
        monkeypatch.setattr(ensemble, "_compositions", ensemble._CompositionCache())
        monkeypatch.setattr(ensemble, "_sort_order",
                            lambda key, *a: sorts.append(key.size) or real(key, *a))
        e = curve(state, bat, n_max).passive_energy
        calls = len(sorts)
        monkeypatch.setattr(ensemble, "_compositions", ensemble._CompositionCache())
        r = state.spectrum_descending
        for n in range(1, n_max + 1):
            fresh = passive_energy_per_copy(build_level_table(r, bat, n))
            assert e[n].hex() == fresh.hex(), n
        return calls

    def test_inherited_orders_keep_every_bit(self, monkeypatch):
        rng = np.random.default_rng(1702)
        state, bat = random_diagonal_state(rng, 6), random_battery(rng, 6)
        calls = self._curve_against_ascending_tables(monkeypatch, state, bat, 16)
        # only the largest table is sorted; every smaller one inherits
        assert calls == 2

    @pytest.mark.parametrize("populations, energies, n_max", [
        (np.array([4.0, 2.0, 1.0]) / 7.0, (0.3, 0.8, 1.7), 40),
        ((0.5, 0.3, 0.2), (0.1, 1.1, 2.1), 60),
    ])
    def test_fallback_keeps_every_bit(self, monkeypatch, populations,
                                      energies, n_max):
        # ln 4 = 2 ln 2, and a ground energy off zero: keys that tie
        # exactly are near ties in floats, so a handed-down order fails
        state = QuantumState.diagonal(populations)
        bat = BatterySpec(np.array(energies))
        calls = self._curve_against_ascending_tables(monkeypatch, state, bat,
                                                     n_max)
        # a side that falls back hands its fresh order down again, so it
        # sorts fewer times than the 80 and 61 of a side that stops there
        assert 2 < calls < {40: 80, 60: 61}[n_max]

    def test_zero_eigenvalue_keeps_every_bit(self, monkeypatch):
        state = QuantumState.diagonal([0.5, 0.3, 0.2, 0.0])
        bat = BatterySpec(np.array([0.0, 0.4, 0.9, 1.5]))
        self._curve_against_ascending_tables(monkeypatch, state, bat, 24)

    def test_a_top_too_large_to_cache_is_enumerated_once(self, monkeypatch):
        # n = 200 at d = 3 holds 62,511 bytes: the curve keeps that entry
        # in its workspace and reads every table from it
        monkeypatch.setattr(ensemble, "COMPOSITION_CACHE_BYTES", 50_000)
        cache = ensemble._CompositionCache()
        monkeypatch.setattr(ensemble, "_compositions", cache)
        enumerated = []
        real = ensemble._composition_matrix
        monkeypatch.setattr(ensemble, "_composition_matrix",
                            lambda n, d: enumerated.append((n, d)) or real(n, d))
        state = QuantumState.diagonal(SKEWED_SPECTRUM)
        bat = BatterySpec(np.array([0.0, 0.579, 1.0]))
        curve(state, bat, 200)
        assert enumerated == [(200, 3)]
        assert 3 not in cache.entries and cache.nbytes <= 50_000
        self._curve_against_ascending_tables(monkeypatch, state, bat, 200)
