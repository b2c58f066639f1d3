"""The four workloads: seeded inputs, timed operations and output checks.

For each workload, generate() runs in the benchmark process before any
timing and writes everything the program will receive. warm_up() runs
in the worker during set-up, prepare() and collect() in the worker
outside the timed part, and run() is one timed operation. check() runs
in the benchmark process after the run, on the outputs of the operations
that returned (a dict by operation index), against references that share
no code with the timed path: the brute-force d^n expansion and LAPACK
eigh (a test oracle only; the program itself never calls LAPACK).

Sizes keep every operation feasible: no workload hits the composition
cap, and every generated state is a valid density matrix, so no
operation is expected to fail.
"""

from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from ergokit import battery, cli, ensemble, gibbs

ORACLE_LEVELS = 1_000_000   # brute-force e(n) check wherever d^n <= this
ORACLE_TOL = 1e-10
STATE_TOL = 1e-8
DEMO_PATH = "demo/qutrit.json"
DEMO_E1, DEMO_E1_TOL = 0.361223, 1e-6


def random_energies(rng, d):
    """Strictly increasing levels from 0 with gaps in [0.2, 1)."""
    return [0.0] + np.cumsum(rng.uniform(0.2, 1.0, d - 1)).tolist()


def random_density_matrix(rng, d):
    """A A^dag / tr, symmetrised so the result is exactly Hermitian."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def random_hermitian(rng, d):
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (b + b.conj().T) / (2.0 * math.sqrt(d))


def matrix_json(m):
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(node):
    return np.array(node["re"]) + 1j * np.array(node["im"])


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def call_cli(argv):
    """cli.main with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_curve_against_oracle(i, energies, spectrum, e_values):
    """e(n) against brute_force_oracle for every n with d^n <= 1e6."""
    spec = battery.BatterySpec(np.array(energies))
    r = np.sort(np.array(spectrum))[::-1]
    d = r.size
    errors = []
    for n, e_n in enumerate(e_values, start=1):
        if d ** n > ORACLE_LEVELS:
            break
        ref = ensemble.brute_force_oracle(r, spec, n)
        if not abs(e_n - ref) <= ORACLE_TOL:
            errors.append((i, f"e({n}) = {e_n!r}, brute force {ref!r}"))
    return errors


def passive_energy_ref(rho, energies):
    lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
    return float(np.dot(lam, energies))


class Workload:
    def warm_up(self, size):
        """Set-up work done before the worker reports ready."""


class CurveCold(Workload):
    """`ergokit curve` on the qutrit demo and two generated diagonal
    problems, each pass in a fresh process, so the composition cache is
    cold as it is for every CLI user."""

    sizes = {"full": {"demo_n_max": 40, "generated": [(6, 24), (8, 14)]},
             "tiny": {"demo_n_max": 6, "generated": [(4, 6), (5, 5)]}}

    def generate(self, rng, size, run_dir, root):
        s = self.sizes[size]
        demo = json.loads((root / DEMO_PATH).read_text(encoding="utf-8"))
        ops = [{"problem": DEMO_PATH, "n_max": s["demo_n_max"], "demo": True,
                "energies": demo["energies"],
                "populations": demo["state"]["populations"]}]
        for j, (d, n_max) in enumerate(s["generated"]):
            energies = random_energies(rng, d)
            pops = rng.dirichlet(np.ones(d)).tolist()
            path = run_dir / f"problem-{j}.json"
            write_json(path, {"label": f"generated d={d}", "energies": energies,
                              "state": {"populations": pops}})
            ops.append({"problem": str(path), "n_max": n_max, "demo": False,
                        "energies": energies, "populations": pops})
        return {"ops": ops}

    def prepare(self, spec, run_dir, pass_id):
        return [["curve", op["problem"], "--n-max", str(op["n_max"]),
                 "--out", str(run_dir / f"curve-{pass_id}-{i}.csv")]
                for i, op in enumerate(spec["ops"])]

    def run(self, spec, argv):
        return call_cli(argv)[0]

    def collect(self, spec, argv, code):
        with open(argv[-1], encoding="utf-8") as fh:
            return {"code": code, "csv": fh.read()}

    def check(self, spec, outputs):
        errors = []
        for i, out in outputs.items():
            op = spec["ops"][i]
            if out["code"] != 0:
                errors.append((i, f"exit code {out['code']}"))
                continue
            rows = [[float(x) for x in line.split(",")]
                    for line in out["csv"].splitlines()[1:]]
            if [int(r[0]) for r in rows] != list(range(1, op["n_max"] + 1)):
                errors.append((i, "CSV rows are not n = 1..n_max"))
                continue
            e = [r[1] for r in rows]
            errors += check_curve_against_oracle(i, op["energies"],
                                                 op["populations"], e)
            if op["demo"]:
                # used verbatim: the spectrum sums to 0.999, so the gap is
                # known to turn negative from n = 8 and is not checked
                if not abs(e[0] - DEMO_E1) <= DEMO_E1_TOL:
                    errors.append((i, f"demo e(1) = {e[0]!r}"))
                continue
            initial = float(np.dot(op["populations"], op["energies"]))
            for n, e_n, w_n, _, gap in rows:
                if not gap >= -ORACLE_TOL:
                    errors.append((i, f"e({n:.0f}) below the asymptote by {-gap!r}"))
                if not abs(w_n - (initial - e_n)) <= 1e-12:
                    errors.append((i, f"w({n:.0f}) != tr(rho H) - e({n:.0f})"))
        return errors


class CurveBatch(Workload):
    """Library curve() on many small diagonal states, caches warmed in
    set-up: table build, merge and matching, with enumeration bypassed."""

    sizes = {"full": {"per_d": 40, "dims": [2, 3, 4, 5, 6], "n_max": 12},
             "tiny": {"per_d": 2, "dims": [2, 3, 4], "n_max": 4}}

    def generate(self, rng, size, run_dir, root):
        s = self.sizes[size]
        ops = [{"energies": random_energies(rng, d),
                "populations": rng.dirichlet(np.ones(d)).tolist()}
               for _ in range(s["per_d"]) for d in s["dims"]]
        return {"ops": ops, "n_max": s["n_max"]}

    def warm_up(self, size):
        s = self.sizes[size]
        for d in s["dims"]:
            pops = np.arange(d, 0, -1, dtype=float)
            ensemble.curve(battery.QuantumState.diagonal(pops / pops.sum()),
                           battery.BatterySpec(np.arange(d, dtype=float)),
                           s["n_max"])

    def prepare(self, spec, run_dir, pass_id):
        return [(battery.BatterySpec(np.array(op["energies"])),
                 battery.QuantumState.diagonal(op["populations"]))
                for op in spec["ops"]]

    def run(self, spec, item):
        spec_battery, state = item
        return ensemble.curve(state, spec_battery, spec["n_max"])

    def collect(self, spec, item, result):
        return {"e": [result.passive_energy[n] for n in result.n_values],
                "asymptote": result.asymptote,
                "initial": result.initial_energy}

    def check(self, spec, outputs):
        errors = []
        for i, out in outputs.items():
            op = spec["ops"][i]
            e = out["e"]
            if len(e) != spec["n_max"]:
                errors.append((i, f"{len(e)} values of e(n)"))
                continue
            errors += check_curve_against_oracle(i, op["energies"],
                                                 op["populations"], e)
            low = min(e) - out["asymptote"]
            if not low >= -ORACLE_TOL:
                errors.append((i, f"e(n) below the asymptote by {-low!r}"))
        return errors


class StateSweep(Workload):
    """Per-state report on many small full density matrices: validation,
    ergotropy, the entropy-matched bound and the optimal unitary."""

    sizes = {"full": {"per_d": 100, "dims": [2, 3, 4, 5, 6]},
             "tiny": {"per_d": 2, "dims": [2, 3, 4]}}

    def generate(self, rng, size, run_dir, root):
        s = self.sizes[size]
        ops = [{"energies": random_energies(rng, d),
                "rho": matrix_json(random_density_matrix(rng, d))}
               for _ in range(s["per_d"]) for d in s["dims"]]
        return {"ops": ops}

    def prepare(self, spec, run_dir, pass_id):
        return [(battery.BatterySpec(np.array(op["energies"])),
                 matrix_from_json(op["rho"])) for op in spec["ops"]]

    def run(self, spec, item):
        spec_battery, matrix = item
        state = battery.QuantumState.full(matrix)
        return (battery.ergotropy(state, spec_battery),
                gibbs.thermodynamic_bound(state, spec_battery),
                battery.optimal_unitary(state, spec_battery))

    def collect(self, spec, item, result):
        w, bound, u = result
        return {"ergotropy": w, "bound": bound, "unitary": matrix_json(u)}

    def check(self, spec, outputs):
        errors = []
        for i, out in outputs.items():
            op = spec["ops"][i]
            energies = np.array(op["energies"])
            rho = matrix_from_json(op["rho"])
            w, bound = out["ergotropy"], out["bound"]
            w_ref = (float(np.dot(np.diag(rho).real, energies))
                     - passive_energy_ref(rho, energies))
            if not abs(w - w_ref) <= STATE_TOL:
                errors.append((i, f"ergotropy {w!r}, eigh reference {w_ref!r}"))
            if not bound >= w - STATE_TOL:
                errors.append((i, f"bound {bound!r} below ergotropy {w!r}"))
            if energies.size == 2 and not abs(bound - w) <= STATE_TOL:
                errors.append((i, f"qubit bound {bound!r} != ergotropy {w!r}"))
            u = matrix_from_json(out["unitary"])
            d = energies.size
            if not np.max(np.abs(u.conj().T @ u - np.eye(d))) <= STATE_TOL:
                errors.append((i, "optimal unitary is not unitary"))
            passive = u @ rho @ u.conj().T
            pops = np.diag(passive).real
            if not (np.max(np.abs(passive - np.diag(np.diag(passive))))
                    <= STATE_TOL and np.all(pops[1:] <= pops[:-1] + STATE_TOL)):
                errors.append((i, "U rho U^dag is not passive"))
        return errors


class SimulateLarge(Workload):
    """`ergokit simulate` on full-matrix problems at large d with random
    Hermitian schedules: Jacobi diagonalisation and expm dominate."""

    sizes = {"full": {"counts": {8: 70, 16: 18, 32: 12}},
             "tiny": {"counts": {4: 2, 6: 2, 8: 2}}}

    def generate(self, rng, size, run_dir, root):
        ops = []
        for d, count in self.sizes[size]["counts"].items():
            for j in range(count):
                energies = random_energies(rng, d)
                rho = random_density_matrix(rng, d)
                segments = [{"duration": float(rng.uniform(0.2, 1.5)),
                             "control": matrix_json(random_hermitian(rng, d))}
                            for _ in range(1 + j % 3)]
                i = len(ops)
                problem = run_dir / f"problem-{i}.json"
                schedule = run_dir / f"schedule-{i}.json"
                write_json(problem, {"energies": energies,
                                     "state": {"matrix": matrix_json(rho)}})
                write_json(schedule, segments)
                ops.append({"problem": str(problem), "schedule": str(schedule)})
        return {"ops": ops}

    def prepare(self, spec, run_dir, pass_id):
        return [["simulate", op["problem"], op["schedule"]] for op in spec["ops"]]

    def run(self, spec, argv):
        return call_cli(argv)[:2]

    def collect(self, spec, argv, result):
        code, stdout = result
        return {"code": code, "stdout": stdout}

    def check(self, spec, outputs):
        errors = []
        for i, out in outputs.items():
            op = spec["ops"][i]
            if out["code"] != 0:
                errors.append((i, f"exit code {out['code']}"))
                continue
            fields = dict(re.findall(r"^([a-z ]+):\s+(\S+)", out["stdout"], re.M))
            try:
                work = float(fields["work extracted"])
                residual = float(fields["unitarity residual"])
            except (KeyError, ValueError):
                errors.append((i, "simulate output lacks work or residual"))
                continue
            with open(op["problem"], encoding="utf-8") as fh:
                problem = json.load(fh)
            with open(op["schedule"], encoding="utf-8") as fh:
                segments = json.load(fh)
            energies = np.array(problem["energies"])
            rho = matrix_from_json(problem["state"]["matrix"])
            h = np.diag(energies).astype(complex)
            u = np.eye(energies.size, dtype=complex)
            for seg in segments:
                lam, q = np.linalg.eigh(h + matrix_from_json(seg["control"]))
                u = (q * np.exp(-1j * seg["duration"] * lam)) @ q.conj().T @ u
            e0 = float(np.dot(np.diag(rho).real, energies))
            final = u @ rho @ u.conj().T
            work_ref = e0 - float(np.dot(np.diag(final).real, energies))
            w_max = e0 - passive_energy_ref(rho, energies)
            if not abs(work - work_ref) <= STATE_TOL:
                errors.append((i, f"work {work!r}, eigh reference {work_ref!r}"))
            if not work <= w_max + STATE_TOL:
                errors.append((i, f"work {work!r} above ergotropy {w_max!r}"))
            if not residual <= STATE_TOL:
                errors.append((i, f"unitarity residual {residual!r}"))
        return errors


WORKLOADS = {
    "curve_cold": CurveCold(),
    "curve_batch": CurveBatch(),
    "state_sweep": StateSweep(),
    "simulate_large": SimulateLarge(),
}
