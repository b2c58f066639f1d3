"""Acceptance gate: every criterion at its stated tolerance, one
PASS/FAIL line per criterion (run with -s to see them on success).

Reference values marked "frozen" were computed with independent
high-precision oracles (mpmath bisection at 50 digits, exact Fraction
sort-and-dot); see scripts/derive_reference_values.py.

Criterion 1 on two inputs: the demo instance quotes its eigenvalues to
three decimals, and they sum to t = 0.999. Used verbatim, as the
program promises, they pin the published e(1) = 0.361223, so the
timing and e(1) clauses run on the verbatim triple. The thermodynamic
clauses (e(n) stays above the entropy-matched asymptote and the gap
shrinks) hold for density matrices, and the verbatim triple is not one:
its e(n) = t^n * e'(n), with e'(n) the per-copy passive energy of
rho / t, decays to 0 and drops below the asymptote from n = 8 on. No
unit-trace triple that rounds to the quoted values reaches
e(1) = 0.361223 +- 1e-6 (the feasible minimum is ~0.361513), so those
clauses run on the triple divided by its trace, normalised here and
not by the program. On that state rho x rho is already passive, so
e(2) = e(1) exactly and the gap decreases strictly only from n = 2 on.
"""

import time

import numpy as np

from conftest import (DEMO_ADVANTAGE_2, DEMO_ANTI, DEMO_ENTROPY,
                      DEMO_GIBBS_ENERGY, random_battery, random_density_matrix,
                      random_diagonal_state, random_unitary)
from ergokit import (QuantumState, apply_unitary, brute_force_oracle,
                     build_level_table, curve, energy, entangling_advantage,
                     entropy, ergotropy, evolve, gibbs_state, match_entropy,
                     optimal_unitary, passive_energy_per_copy, passive_state,
                     thermodynamic_bound)
from ergokit.ensemble import product_energies, product_populations
from ergokit.protocol import ControlSchedule


def report(num, name, checks):
    ok = all(v for _, v in checks)
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    failed = [label for label, v in checks if not v]
    for label in failed:
        print(f"  failed: {label}")
    assert ok, f"criterion {num} ({name}) failed: " + "; ".join(failed)


def test_criterion_1_convergence_curve(demo_battery, demo_anti_state):
    t0 = time.perf_counter()
    c = curve(demo_anti_state, demo_battery, 40)
    elapsed = time.perf_counter() - t0
    # the thermodynamic clauses need a density matrix: see the module docstring
    unit = curve(QuantumState.diagonal(np.array(DEMO_ANTI) / sum(DEMO_ANTI)),
                 demo_battery, 40)
    gaps = {n: unit.passive_energy[n] - unit.asymptote for n in range(1, 41)}
    sub = [gaps[n] for n in (1, 2, 4, 8, 16, 32)]
    report(1, "convergence curve", [
        (f"n=1..40 under 10 s (took {elapsed:.2f} s)", elapsed < 10.0),
        ("e(1) = 0.361223 +- 1e-6",
         abs(c.passive_energy[1] - 0.361223) <= 1e-6),
        # exact rational: (0.237*0.579 + 0.224) / 0.999
        ("unit trace: e(1) = 361223/999000 within 1e-12",
         abs(unit.passive_energy[1] - 361223 / 999000) <= 1e-12),
        ("unit trace: e(n) strictly above the asymptote for all n <= 40",
         all(g > 0 for g in gaps.values())),
        ("unit trace: gap(32) < gap(1)", gaps[32] < gaps[1]),
        ("unit trace: gap positive on {1,2,4,8,16,32}",
         all(g > 0 for g in sub)),
        # rho x rho is passive, so e(2) = e(1); slack as in criterion 8
        ("unit trace: gap(2) <= gap(1) + 1e-12", gaps[2] <= gaps[1] + 1e-12),
        ("unit trace: gap decreasing on {2,4,8,16,32}",
         all(b < a for a, b in zip(sub[1:], sub[2:]))),
    ])


def test_criterion_2_entropy_matching(demo_battery, demo_passive_state):
    s_rho = entropy(demo_passive_state)
    match = match_entropy(demo_battery, s_rho)
    report(2, "entropy matching", [
        # frozen direct -sum(r ln r) oracle value: 1.00984064927155988...
        ("S(rho) within 1e-5 of the direct-evaluation oracle",
         abs(s_rho - DEMO_ENTROPY) <= 1e-5),
        ("S(rho) reproduces the oracle to 1e-12",
         abs(s_rho - DEMO_ENTROPY) <= 1e-12),
        ("|S(omega_beta) - S(rho)| <= 1e-10",
         abs(match.gibbs_entropy - s_rho) <= 1e-10),
        # frozen 50-digit bisection oracle value: 0.35328693945130519...
        ("matched Gibbs energy within 1e-8 of the high-precision oracle",
         abs(match.gibbs_energy - DEMO_GIBBS_ENERGY) <= 1e-8),
    ])


def test_criterion_3_qubit_exceptional_case():
    rng = np.random.default_rng(30_001)
    qubit_tight = True
    for _ in range(1000):
        bat = random_battery(rng, 2)
        state = random_density_matrix(rng, 2)
        gap = abs(thermodynamic_bound(state, bat) - ergotropy(state, bat))
        qubit_tight = qubit_tight and gap <= 1e-8
    bound_holds = True
    strict = 0
    for _ in range(1000):
        d = int(rng.integers(3, 7))
        bat = random_battery(rng, d)
        state = random_density_matrix(rng, d)
        diff = thermodynamic_bound(state, bat) - ergotropy(state, bat)
        bound_holds = bound_holds and diff >= -1e-8
        if diff > 0:
            strict += 1
    report(3, "qubit exceptional case", [
        ("1000 qubit states: |ergotropy - bound| <= 1e-8", qubit_tight),
        ("1000 d=3..6 states: bound >= ergotropy - 1e-8", bound_holds),
        (f"strict inequality in >= 99% of d>=3 cases (got {strict / 10:.1f}%)",
         strict >= 990),
    ])


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(40_001)
    t0 = time.perf_counter()
    ok = True
    for d_values, n_max in (((2, 3), 10), ((2, 3, 4, 5), 6)):
        for d in d_values:
            bat = random_battery(rng, d)
            for _ in range(100):
                r = rng.dirichlet(np.ones(d))
                for n in range(1, n_max + 1):
                    table = passive_energy_per_copy(
                        build_level_table(r, bat, n))
                    brute = brute_force_oracle(r, bat, n)
                    ok = ok and abs(table - brute) <= 1e-10
    elapsed = time.perf_counter() - t0
    report(4, "oracle equivalence", [
        ("compressed matches brute force within 1e-10 on all blocks", ok),
        (f"runtime under 60 s (took {elapsed:.1f} s)", elapsed < 60.0),
    ])


def test_criterion_5_variational_chain():
    rng = np.random.default_rng(50_001)
    chain_ok = True
    copies_ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        bat = random_battery(rng, d)
        state = random_diagonal_state(rng, d)
        rep = passive_state(state, bat)
        g = match_entropy(bat, entropy(state)).gibbs_energy
        chain_ok = chain_ok and (
            energy(state, bat) >= rep.passive_energy - 1e-10
            and rep.passive_energy >= g - 1e-8)
        spectrum = state.spectrum_descending
        for n in range(1, 13):
            e_n = passive_energy_per_copy(build_level_table(spectrum, bat, n))
            copies_ok = copies_ok and e_n >= g - 1e-9
    report(5, "variational chain", [
        ("tr(rho H) >= passive energy >= Gibbs energy - 1e-8 on 1000 instances",
         chain_ok),
        ("per-copy e(n) >= Gibbs energy - 1e-9 for n <= 12", copies_ok),
    ])


def test_criterion_6_ergotropy_ceiling():
    rng = np.random.default_rng(60_001)
    schedules_ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        bat = random_battery(rng, d)
        state = (random_diagonal_state(rng, d) if rng.random() < 0.5
                 else random_density_matrix(rng, d))
        segs = []
        for _ in range(int(rng.integers(1, 3))):
            G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            segs.append((rng.uniform(0.05, 1.5), (G + G.conj().T) / 2))
        res = evolve(state, bat, ControlSchedule.from_pairs(segs))
        schedules_ok = schedules_ok and res.work <= ergotropy(state, bat) + 1e-8

    unitaries_ok = True
    pairs = ((2, 2), (2, 3), (3, 2), (2, 6), (4, 3), (8, 2), (3, 3), (2, 4),
             (5, 2), (6, 2))
    for d, n in pairs * 2:
        bat = random_battery(rng, d)
        state = random_diagonal_state(rng, d)
        w_n = curve(state, bat, n).work[n]
        energies = product_energies(bat, n)
        big = QuantumState.diagonal(
            product_populations(state.diagonal_populations(), n))
        for _ in range(50):
            res = apply_unitary(big, energies, random_unitary(rng, d ** n))
            unitaries_ok = unitaries_ok and res.work <= n * w_n + 1e-8

    optimal_ok = True
    for _ in range(50):
        d = int(rng.integers(2, 7))
        bat = random_battery(rng, d)
        state = random_density_matrix(rng, d)
        res = apply_unitary(state, bat, optimal_unitary(state, bat))
        optimal_ok = optimal_ok and abs(res.work - ergotropy(state, bat)) <= 1e-9

    report(6, "ergotropy ceiling", [
        ("1000 random schedules never beat the ergotropy + 1e-8",
         schedules_ok),
        ("1000 random global unitaries never beat n*w_max(n) + 1e-8",
         unitaries_ok),
        ("optimal unitary attains the ergotropy within 1e-9", optimal_ok),
    ])


def test_criterion_7_entanglement_advantage(demo_battery, demo_anti_state):
    adv = entangling_advantage(demo_anti_state, demo_battery, 2)
    spectrum = demo_anti_state.spectrum_descending
    indep = 2 * (brute_force_oracle(spectrum, demo_battery, 1)
                 - brute_force_oracle(spectrum, demo_battery, 2))
    # on the unit-trace demo rho x rho is already passive, so the n = 2
    # advantage vanishes and the first one appears at n = 3
    unit = QuantumState.diagonal(np.array(DEMO_ANTI) / sum(DEMO_ANTI))
    unit_adv_2 = entangling_advantage(unit, demo_battery, 2)
    unit_adv_3 = entangling_advantage(unit, demo_battery, 3)
    gibbs_ok = True
    for beta in (0.5, 1.3):
        state = gibbs_state(demo_battery, beta).to_state()
        for n in (2, 3, 4):
            gibbs_ok = gibbs_ok and abs(
                entangling_advantage(state, demo_battery, n)) <= 1e-10
    report(7, "entanglement advantage", [
        ("demo advantage at n=2 is strictly positive", adv > 0),
        ("matches the independently recomputed 2*(e(1) - e(2)) within 1e-9",
         abs(adv - indep) <= 1e-9),
        # frozen exact-Fraction value: 0.000722446
        ("matches the frozen exact value within 1e-9",
         abs(adv - DEMO_ADVANTAGE_2) <= 1e-9),
        ("Gibbs inputs show advantage <= 1e-10 at n = 2, 3, 4", gibbs_ok),
        ("unit-trace demo: |advantage at n=2| <= 1e-12",
         abs(unit_adv_2) <= 1e-12),
        # exact Fraction value: 719706601/199400599800
        ("unit-trace demo: advantage at n=3 matches the exact value "
         "within 1e-12", abs(unit_adv_3 - 719706601 / 199400599800) <= 1e-12),
    ])


def test_criterion_8_structural_bounds(demo_battery, demo_anti_state):
    def bounds_hold(state, battery, n_max):
        e = curve(state, battery, n_max).passive_energy
        for n in e:
            for k in range(2, n_max // n + 1):
                if e[k * n] > e[n] + 1e-12:
                    return False
        for n in range(1, n_max):
            if e[n + 1] > (n * e[n] + e[1]) / (n + 1) + 1e-12:
                return False
        return True

    demo_ok = bounds_hold(demo_anti_state, demo_battery, 40)
    rng = np.random.default_rng(80_001)
    random_ok = True
    for _ in range(20):
        d = int(rng.integers(2, 5))
        bat = random_battery(rng, d)
        state = random_diagonal_state(rng, d)
        random_ok = random_ok and bounds_hold(state, bat, 8)
    report(8, "structural bounds", [
        ("e(kn) <= e(n) + 1e-12 and mixing bound across the demo curve",
         demo_ok),
        ("both bounds hold on 20 random instances", random_ok),
    ])
