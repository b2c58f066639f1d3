#!/usr/bin/env python3
"""Regenerate the frozen reference constants used by the test suite.

All values concern the bundled three-level demo instance: energies
(0, 0.579, 1), eigenvalues (0.538, 0.237, 0.224) taken verbatim (they
are quoted to three decimals and sum to 0.999). Entropy, the matched
inverse temperature, and the matched Gibbs energy are computed with
mpmath at 50 significant digits; passive energies e(n) are exact
rationals from the integer-multinomial oracle in tests/exact_oracle.py,
entirely independent of the package implementation.

A second block covers the unit-trace instance r = (538, 237, 224)/999,
the verbatim triple divided by its trace, on which acceptance
criterion 1 checks the thermodynamic clauses: its exact e(1) = e(2)
(rho x rho is already passive), e(3), and its entropy-matched Gibbs
energy.

With --large-n it also prints the exact e(n) frozen in tests/conftest.py
for the merge at large n: the skewed battery state, spectrum
(0.99, 0.006, 0.004) on the demo energies, at n = 600, 700 and 800, and
the unit-trace instance at n = 800. These take about a minute.

    python scripts/derive_reference_values.py [--large-n]
"""

import sys
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpf, exp, log

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from exact_oracle import exact_passive_energy_per_copy  # noqa: E402

mp.dps = 50

ENERGIES = [mpf("0"), mpf("0.579"), mpf("1")]
VERBATIM = [Fraction(538, 1000), Fraction(237, 1000), Fraction(224, 1000)]
UNIT_TRACE = [Fraction(538, 999), Fraction(237, 999), Fraction(224, 999)]
SKEWED = [Fraction(99, 100), Fraction(6, 1000), Fraction(4, 1000)]


def to_mpf(q):
    return mpf(q.numerator) / q.denominator


def exact(q):
    return f"{q} = {mp.nstr(to_mpf(q), 20)}"


def gibbs_populations(beta):
    weights = [exp(-beta * e) for e in ENERGIES]
    z = sum(weights)
    return [w / z for w in weights]


def gibbs_entropy(beta):
    return -sum(p * log(p) for p in gibbs_populations(beta))


def gibbs_energy(beta):
    return sum(p * e for p, e in zip(gibbs_populations(beta), ENERGIES))


def matched_beta(target, iterations=300):
    lo, hi = mpf(0), mpf(1)
    while gibbs_entropy(hi) > target:
        hi *= 2
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if gibbs_entropy(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def entropy(r):
    return -sum(to_mpf(x) * log(to_mpf(x)) for x in r)


def energy_per_copy(r, n):
    """Exact rational e(n) of the rational spectrum r on the demo levels."""
    return exact_passive_energy_per_copy(r, ["0", "0.579", "1"], n)


def main():
    s_rho = entropy(VERBATIM)
    beta = matched_beta(s_rho)
    print(f"entropy S(rho)          = {mp.nstr(s_rho, 20)}")
    print(f"matched beta            = {mp.nstr(beta, 20)}")
    print(f"matched Gibbs energy    = {mp.nstr(gibbs_energy(beta), 20)}")
    print(f"entropy residual        = {mp.nstr(abs(gibbs_entropy(beta) - s_rho), 5)}")
    print(f"S(Gibbs, beta=1)        = {mp.nstr(gibbs_entropy(mpf(1)), 20)}")
    for n in (1, 2, 3):
        e_n = energy_per_copy(VERBATIM, n)
        print(f"e({n}) exact             = {exact(e_n)}")
    e1, e2 = (energy_per_copy(VERBATIM, n) for n in (1, 2))
    adv = 2 * (e1 - e2)
    print(f"2*(e(1) - e(2)) exact   = {adv} = {float(adv)}")

    print("unit-trace instance r = (538, 237, 224)/999:")
    s_unit = entropy(UNIT_TRACE)
    beta_unit = matched_beta(s_unit)
    print(f"entropy S(rho)          = {mp.nstr(s_unit, 20)}")
    print(f"matched beta            = {mp.nstr(beta_unit, 20)}")
    print(f"matched Gibbs energy    = {mp.nstr(gibbs_energy(beta_unit), 20)}")
    e1, e2, e3 = (energy_per_copy(UNIT_TRACE, n) for n in (1, 2, 3))
    assert e1 == e2 == Fraction(361223, 999000)
    print(f"e(1) = e(2) exact       = {exact(e1)}")
    print(f"e(3) exact              = {exact(e3)}")
    print(f"3*(e(1) - e(3)) exact   = {exact(3 * (e1 - e3))}")


def large_n():
    print("skewed instance r = (0.99, 0.006, 0.004):")
    for n in (600, 700, 800):
        e_n = energy_per_copy(SKEWED, n)
        print(f"e({n})                  = {mp.nstr(to_mpf(e_n), 20)}")
    e_n = energy_per_copy(UNIT_TRACE, 800)
    print(f"unit-trace e(800)       = {mp.nstr(to_mpf(e_n), 20)}")


if __name__ == "__main__":
    main()
    if "--large-n" in sys.argv[1:]:
        large_n()
