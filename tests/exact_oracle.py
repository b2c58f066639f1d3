"""Exact rational per-copy passive energy e(n), independent of ergokit.

Every composition (k_1, ..., k_d) of n is one group of n!/prod k_j!
product levels that share the probability prod r_j^k_j and the energy
sum k_j eps_j. With the spectrum scaled to integers a_j = D r_j and the
energies to integers b_j = B eps_j, probabilities, energies and counts
are all integers, so sorting the two group lists and merging them
greedily gives e(n) exactly. Plain Python integers only: nothing here
touches numpy or the package's table and merge.
"""

from fractions import Fraction
from math import factorial, lcm, prod


def _compositions(n, d):
    if d == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for tail in _compositions(n - k, d - 1):
            yield (k,) + tail


def exact_passive_energy_per_copy(spectrum, energies, n) -> Fraction:
    """e(n) for a rational spectrum and rational level energies (anything
    Fraction accepts, e.g. ints, Fractions or decimal strings)."""
    r = [Fraction(x) for x in spectrum]
    eps = [Fraction(x) for x in energies]
    D = lcm(*(x.denominator for x in r))
    B = lcm(*(x.denominator for x in eps))
    a = [int(x * D) for x in r]
    b = [int(x * B) for x in eps]
    fact = [factorial(k) for k in range(n + 1)]

    prob_groups, energy_groups = [], []
    for k in _compositions(n, len(a)):
        count = fact[n] // prod(fact[kj] for kj in k)
        p = prod(aj ** kj for aj, kj in zip(a, k))
        if p:
            prob_groups.append((p, count))
        energy_groups.append((sum(kj * bj for kj, bj in zip(k, b)), count))
    prob_groups.sort(reverse=True)
    energy_groups.sort()

    total, j = 0, 0
    e_val, e_left = energy_groups[0]
    for p, p_left in prob_groups:
        while p_left:
            take = min(p_left, e_left)
            total += take * p * e_val
            p_left -= take
            e_left -= take
            if not e_left and j + 1 < len(energy_groups):
                j += 1
                e_val, e_left = energy_groups[j]
    return Fraction(total, D ** n * B * n)
