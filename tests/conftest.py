"""Shared fixtures, random-instance generators, and frozen reference
values for the test suite.

Reference constants were computed with independent high-precision
oracles (mpmath at 50+ digits, exact integer arithmetic for the
passive energies, tests/exact_oracle.py);
scripts/derive_reference_values.py regenerates them.
"""

import numpy as np
import pytest
from hypothesis import settings

from ergokit import BatterySpec, QuantumState

settings.register_profile("ci", deadline=None, max_examples=50,
                          derandomize=True)
settings.load_profile("ci")


# --- the three-level demo instance ------------------------------------
# Published eigenvalues, rounded to three decimals; they sum to 0.999.
# The program uses them verbatim (never renormalized); acceptance
# criterion 1 and test_normalized_demo_stays_above_asymptote need a true
# density matrix and divide them by their sum explicitly.
DEMO_ENERGIES = (0.0, 0.579, 1.0)
DEMO_SPECTRUM = (0.538, 0.237, 0.224)          # passive arrangement
DEMO_ANTI = (0.224, 0.237, 0.538)              # anti-passive arrangement

DEMO_INITIAL_ENERGY = 0.675223                 # exact: 0.237*0.579 + 0.538
DEMO_PASSIVE_ENERGY = 0.361223                 # exact: 0.237*0.579 + 0.224
DEMO_ERGOTROPY = 0.314                         # exact difference
DEMO_E2 = 0.360861777                          # exact Fraction sort-and-dot
DEMO_ADVANTAGE_2 = 0.000722446                 # exact: 2*(e(1) - e(2))

DEMO_ENTROPY = 1.0098406492715599              # mpmath: -sum r ln r
DEMO_BETA = 1.0363528238614090                 # mpmath bisection, 50 dps
DEMO_GIBBS_ENERGY = 0.3532869394513052         # mpmath, at the beta above

ENTROPY_GIBBS_BETA1 = 1.0157163593878962       # mpmath: S(omega_1), demo levels
MAXMIX_ENERGY = 1.579 / 3.0                    # uniform populations

# Near-uniform populations summing to 1.009, inside the 1e-2 trace
# slack: S = 1.0994... exceeds ln 3, so the entropy target is capped at
# ln 3 and the match is beta = 0 (Gibbs energy: the mean level, 0.5).
OVERFULL_ENERGIES = (0.0, 0.5, 1.0)
OVERFULL_POPULATIONS = (0.3364, 0.3363, 0.3363)


# --- exact e(n) at large n -----------------------------------------------
# Integer-multinomial oracle (tests/exact_oracle.py) on the exact rational
# spectra; `scripts/derive_reference_values.py --large-n` prints them.
# Here the per-copy count ladder spans more than e^745, the range of a
# rescaled linear count, so these values gate the log-domain merge.
SKEWED_SPECTRUM = (0.99, 0.006, 0.004)         # on DEMO_ENERGIES
SKEWED_E = {600: 0.0067591710038147892,
            700: 0.0067220518897966475,
            800: 0.0066958042741978776}
UNIT_TRACE_DEMO_E800 = 0.35329791102847108     # r = (538, 237, 224)/999


@pytest.fixture
def demo_battery():
    return BatterySpec(np.array(DEMO_ENERGIES))


@pytest.fixture
def demo_passive_state():
    return QuantumState.diagonal(DEMO_SPECTRUM)


@pytest.fixture
def demo_anti_state():
    return QuantumState.diagonal(DEMO_ANTI)


# --- random instance generators ----------------------------------------

def random_battery(rng, d, ground=0.0, max_gap=1.0):
    gaps = rng.uniform(0.05, max_gap, size=d - 1)
    return BatterySpec(ground + np.concatenate(([0.0], np.cumsum(gaps))))


def random_diagonal_state(rng, d):
    return QuantumState.diagonal(rng.dirichlet(np.ones(d)))


def random_density_matrix(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    return QuantumState.full(rho)


def random_unitary(rng, d):
    """Haar-ish unitary: QR orthonormalization of a complex Gaussian
    matrix with the R-diagonal phase fixed."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
