#!/usr/bin/env python3
"""Digest of ergokit's outputs, one line per record, for comparing two
checkouts bit for bit.

    python scripts/output_digest.py [--src DIR] > digest.txt
    diff <(python scripts/output_digest.py --src OLD) \\
         <(python scripts/output_digest.py)

Each line is `name value`: a float as float.hex, an int or bool as
itself, an array or a text as a short hash of its exact bytes. The
records cover the two demo problems and 200 seeded random states
(diagonal, d = 2..16, with tied, zero and roundoff-negative populations;
full, d = 2..32, up to the largest size `ergokit simulate` is benchmarked
at): energy, spectrum, passive state, entropy-matched bound, optimal
unitary, the curve to n = 4 or 3, the n = 2 entangling
advantage, the complete-passivity report (diagonal states), evolve and
apply_unitary; the n-copy level tables (log_prob, energy, log_mult and
e(n)) of seeded problems at fixed (d, n) up to 525,825 rows, of the
(3, 40) problem again after (3, 1024) (its table is then read from the
larger composition entry; its records must equal table.d3.n40.*), of a
tied integer ladder at n = 200 and of a zero eigenvalue at n = 90; every e(n)
of curve() on a seeded d = 6 problem to n = 12, on that zero eigenvalue
to n = 90, on that tied ladder to n = 100 (tables past one ladder block,
built in the workspace a curve reuses), on the geometric spectrum
(4, 2, 1)/7 with ground energy 0.3 to n = 40 (near ties, so the sort
orders a curve hands from n to n - 1 fail their check and it sorts
afresh) and on the unit-trace qutrit demo to n = 200; and the
ergotropy, curve, simulate and oracle subcommands on the demo files,
their exit codes, stdout, stderr and CSV. One simulate run has a
segment whose phase overflows the float range, and four runs are
refused: simulate with a segment too long for the propagator
(duration 1e10), oracle past the brute-force cap, and curve past the
table byte budget, lowered to 10 rows for that run. One more evolve
runs on a seeded d = 9 battery whose energies are offset by 1e3, which
the propagator's trace shift takes out. Three seeded Hermitian matrices,
at d = 8, 16 and 32, record the Jacobi sweep count eig_hermitian takes
on them.

Two records, printed as they are rather than hashed, name what the bits
depend on besides the code: machine.numpy_dispatch, the highest SIMD
target numpy dispatches to in this process (NPY_DISABLE_CPU_FEATURES
lowers it), and machine.glibc, from platform.libc_ver().

--src DIR imports ergokit from DIR/src, so the same script digests
another checkout. It reads states only through diagonal_populations(),
spectrum_descending and .matrix of a protocol result, so it runs on
checkouts from before QuantumState became a single matrix field too.
"""

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
STATES = 200
SEED = 20261018
# (d, n) of the level tables digested row by row
TABLE_SIZES = [(2, 64), (3, 40), (4, 20), (6, 24), (8, 14), (3, 1024)]


def digest(x) -> str:
    if isinstance(x, (bool, int, np.bool_, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, str):
        data = x.encode()
    else:
        a = np.asarray(x)
        data = a.tobytes() + f"{a.dtype.str}{a.shape}".encode()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def emit(name: str, x) -> None:
    print(f"{name} {digest(x)}")


def machine_records() -> None:
    from numpy._core._multiarray_umath import (__cpu_baseline__,
                                               __cpu_dispatch__,
                                               __cpu_features__)
    # dispatch targets run from the lowest to the highest
    dispatched = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    highest = (dispatched or __cpu_baseline__ or ["none"])[-1]
    print(f"machine.numpy_dispatch {highest}")
    lib, version = platform.libc_ver()
    print(f"machine.glibc {lib}-{version}" if lib else "machine.glibc unknown")


def random_problem(ek, rng, k):
    """Battery and state k: even k diagonal with d = 2..16, odd k full
    with d = 2..32."""
    d = 2 + k % (15 if k % 2 == 0 else 31)
    energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, d - 1))])
    if k % 2 == 0:
        counts = rng.integers(0, 4, d) if k % 4 == 0 else rng.uniform(0, 1, d)
        counts[0] += counts.sum() == 0
        p = counts / counts.sum()
        if k % 20 == 10:
            # a population inside the roundoff floor, clamped to zero
            p[0], p[-1] = p[0] + p[-1] + 5e-13, -5e-13
        state = ek.QuantumState.diagonal(p)
    else:
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = G @ G.conj().T
        state = ek.QuantumState.full(rho / np.trace(rho).real)
    return ek.BatterySpec(energies), state


def random_schedule(ek, rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return ek.ControlSchedule.from_pairs([(float(rng.uniform(0.2, 1.5)),
                                          (G + G.conj().T) / 2)])


def library_records(ek, name, battery, state, rng):
    emit(f"{name}.energy", ek.energy(state, battery))
    emit(f"{name}.populations", state.diagonal_populations())
    emit(f"{name}.spectrum", state.spectrum_descending)
    emit(f"{name}.is_passive", ek.is_passive(state, battery))
    report = ek.passive_state(state, battery)
    emit(f"{name}.passive_energy", report.passive_energy)
    emit(f"{name}.ergotropy", report.ergotropy)
    emit(f"{name}.passive_populations", report.passive_populations)
    emit(f"{name}.bound", ek.thermodynamic_bound(state, battery))
    U = ek.optimal_unitary(state, battery)
    emit(f"{name}.optimal_unitary", U)
    n_max = 4 if battery.dim <= 10 else 3
    result = ek.curve(state, battery, n_max)
    emit(f"{name}.curve.e", [result.passive_energy[n] for n in result.n_values])
    emit(f"{name}.curve.work", [result.work[n] for n in result.n_values])
    emit(f"{name}.curve.asymptote", result.asymptote)
    emit(f"{name}.advantage2", ek.entangling_advantage(state, battery, 2))
    if state.max_offdiagonal() == 0.0:
        cp = ek.complete_passivity_check(state, battery, 3)
        emit(f"{name}.passivity.gibbs_like", cp.is_gibbs_like)
        emit(f"{name}.passivity.first_active_n", cp.first_active_n or 0)
        emit(f"{name}.passivity.fit", [cp.fit_beta, cp.fit_residual])
    for label, res in (("apply", ek.apply_unitary(state, battery, U)),
                       ("evolve", ek.evolve(state, battery,
                                            random_schedule(ek, rng, battery.dim)))):
        emit(f"{name}.{label}.work", res.work)
        emit(f"{name}.{label}.unitary", res.total_unitary)
        emit(f"{name}.{label}.final", res.final_state.matrix)
    emit(f"{name}.evolve.final_spectrum", res.final_state.spectrum_descending)


def offset_records(ek, rng):
    battery, state = random_problem(ek, rng, 7)
    offset = ek.BatterySpec(battery.energies + 1e3)
    res = ek.evolve(state, offset, random_schedule(ek, rng, battery.dim))
    emit("offset.d9.evolve.work", res.work)
    emit("offset.d9.evolve.unitary", res.total_unitary)
    emit("offset.d9.evolve.final", res.final_state.matrix)


def sweep_records(ek, rng):
    for d in (8, 16, 32):
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        emit(f"jacobi.d{d}.sweeps", ek.linalg.eig_hermitian(G + G.conj().T).sweeps)


def table_records(ek, rng):
    problems = {}
    for d, n in TABLE_SIZES:
        energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, d - 1))])
        problems[d, n] = rng.dirichlet(np.ones(d)), ek.BatterySpec(energies)
        table = ek.build_level_table(*problems[d, n], n)
        table_record(ek, f"table.d{d}.n{n}", table)
    table = ek.build_level_table(*problems[3, 40], 40)
    table_record(ek, "table.d3.n40_after_n1024", table)
    # fixed spectra whose ladders run past one LADDER_BLOCK (2,048 rows):
    # a tied integer ladder and a zero eigenvalue
    for name, spectrum, energies, n in (
            ("tied.d3.n200", [0.25, 0.5, 0.25], np.arange(3.0), 200),
            ("zero.d3.n90", [0.7, 0.3, 0.0], np.array([0.0, 0.3, 1.0]), 90)):
        table = ek.build_level_table(spectrum, ek.BatterySpec(energies), n)
        table_record(ek, f"table.{name}", table)


def curve_records(ek, rng):
    """Every e(n) of five curves whose largest tables run past one
    LADDER_BLOCK (2,048 rows), but for the geometric one (861 rows)."""
    d6_energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 5))])
    demo = np.array([0.538, 0.237, 0.224])
    for name, populations, energies, n_max in (
            ("d6", rng.dirichlet(np.ones(6)), d6_energies, 12),
            ("zero.d3", [0.7, 0.3, 0.0], np.array([0.0, 0.3, 1.0]), 90),
            ("tied.d3", [0.25, 0.5, 0.25], np.arange(3.0), 100),
            ("geometric.d3", np.array([4.0, 2.0, 1.0]) / 7.0,
             np.array([0.3, 0.8, 1.7]), 40),
            ("unit_demo.d3", demo / demo.sum(), np.array([0.0, 0.579, 1.0]), 200)):
        result = ek.curve(ek.QuantumState.diagonal(populations),
                          ek.BatterySpec(energies), n_max)
        for n in result.n_values:
            emit(f"curve.{name}.e[{n:03d}]", result.passive_energy[n])


def table_record(ek, name, table):
    for field in ("log_prob", "energy", "log_mult"):
        emit(f"{name}.{field}", getattr(table, field))
    emit(f"{name}.e", ek.passive_energy_per_copy(table))


def run_cli(cli, name, argv, csv_path=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    emit(f"{name}.exit", code)
    emit(f"{name}.stdout", out.getvalue())
    emit(f"{name}.stderr", err.getvalue())
    if csv_path is not None:
        emit(f"{name}.csv", Path(csv_path).read_text())


def cli_records(cli, tmp: Path):
    qubit, qutrit, swap = (str(REPO_ROOT / "demo" / f"{name}.json") for name
                           in ("qubit", "qutrit", "qubit_swap_schedule"))
    overflow, long = tmp / "overflow.json", tmp / "long.json"
    overflow.write_text(json.dumps([{"duration": 1e308, "control": {
        "re": [[0.0, 0.0], [0.0, 5.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}}]))
    long.write_text(json.dumps([{"duration": 1e10, "control": {
        "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}}]))
    for demo, path in (("qubit", qubit), ("qutrit", qutrit)):
        run_cli(cli, f"cli.{demo}.ergotropy", ["ergotropy", path])
        run_cli(cli, f"cli.{demo}.ergotropy_json", ["ergotropy", path, "--json"])
        csv = tmp / f"{demo}.csv"
        run_cli(cli, f"cli.{demo}.curve", ["curve", path, "--n-max", "20",
                                           "--out", str(csv)], csv)
        run_cli(cli, f"cli.{demo}.oracle", ["oracle", path, "--n", "5"])
    run_cli(cli, "cli.qubit.simulate", ["simulate", qubit, swap])
    run_cli(cli, "cli.qubit.simulate_overflow", ["simulate", qubit, str(overflow)])
    run_cli(cli, "cli.qubit.simulate_long", ["simulate", qubit, str(long)])
    # 3^15 levels exceed the brute-force cap
    run_cli(cli, "cli.qutrit.oracle_over_cap", ["oracle", qutrit, "--n", "15"])
    ensemble = sys.modules["ergokit.ensemble"]
    budget = ensemble.TABLE_BYTE_BUDGET
    ensemble.TABLE_BYTE_BUDGET = 10 * ensemble.TABLE_BYTES_PER_ROW
    try:
        csv = tmp / "over_budget.csv"
        run_cli(cli, "cli.qutrit.curve_over_budget",
                ["curve", qutrit, "--n-max", "8", "--out", str(csv)], csv)
    finally:
        ensemble.TABLE_BYTE_BUDGET = budget


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(REPO_ROOT),
                        help="checkout whose src/ergokit is digested "
                             "(default: this one)")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve() / "src"))
    import ergokit as ek
    from ergokit import cli

    # numpy warnings go to stderr, where run_cli records them each time
    warnings.simplefilter("always")
    machine_records()
    for demo in ("qubit", "qutrit"):
        battery, state, _ = cli.load_problem(str(REPO_ROOT / "demo" / f"{demo}.json"))
        library_records(ek, f"demo.{demo}", battery, state,
                        np.random.default_rng(SEED))
    rng = np.random.default_rng(SEED)
    for k in range(STATES):
        battery, state = random_problem(ek, rng, k)
        library_records(ek, f"state[{k:03d}].d{battery.dim}", battery, state, rng)
    offset_records(ek, np.random.default_rng(SEED))
    sweep_records(ek, np.random.default_rng(SEED))
    table_records(ek, np.random.default_rng(SEED))
    curve_records(ek, np.random.default_rng(SEED))
    with tempfile.TemporaryDirectory() as tmp:
        cli_records(cli, Path(tmp))


if __name__ == "__main__":
    main()
