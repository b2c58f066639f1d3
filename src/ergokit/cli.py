"""Command-line surface: ergotropy reports, convergence curves, protocol
simulation, and the compressed-vs-brute-force oracle check.

Problem files are JSON: {"energies": [...], "state": {"populations":
[...]}} or {"state": {"matrix": {"re": [[...]], "im": [[...]]}}}, plus an
optional "label". Schedule files are JSON arrays of {"duration": t,
"control": {"re": [[...]], "im": [[...]]}}. CSV output uses 17
significant digits so values round-trip exactly.

Exit codes: 0 ok, 2 parse/validation error, 3 numerical failure,
4 table byte budget or brute-force cap exceeded, 5 oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .battery import BatterySpec, QuantumState, passive_state
from .ensemble import (brute_force_oracle, build_level_table, curve,
                       passive_energy_per_copy)
from .errors import (CapExceededError, ErgokitError, NoConvergenceError,
                     ValidationError)
from .gibbs import entropy, entropy_target, match_entropy
from .protocol import ControlSchedule, evolve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CAP = 4
EXIT_ORACLE_MISMATCH = 5


def fmt(x: float) -> str:
    """17 significant digits: exact round-trip for doubles."""
    return format(float(x), ".17g")


class ProblemFileError(ValidationError):
    pass


def _require(doc: dict, key: str, path: str, where: str = ""):
    if key not in doc:
        raise ProblemFileError(f"{path}: missing field '{where}{key}'")
    return doc[key]


def _as_matrix(node, path: str, where: str) -> np.ndarray:
    re_part = _require(node, "re", path, where)
    im_part = _require(node, "im", path, where)
    try:
        re_arr = np.array(re_part, dtype=float)
        im_arr = np.array(im_part, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{path}: field '{where}re/im': {exc}") from exc
    if re_arr.shape != im_arr.shape or re_arr.ndim != 2:
        raise ProblemFileError(
            f"{path}: field '{where}re/im' must be equal-shape 2-D arrays, "
            f"got {re_arr.shape} and {im_arr.shape}")
    # 1j * inf is nan + inf j; the caller rejects any non-finite entry
    with np.errstate(invalid="ignore"):
        return re_arr + 1j * im_arr


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_problem(path: str) -> tuple[BatterySpec, QuantumState, str | None]:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be a JSON object")
    energies = _require(doc, "energies", path)
    try:
        battery = BatterySpec(np.array(energies, dtype=float))
    except (TypeError, ValueError, ValidationError) as exc:
        raise ProblemFileError(f"{path}: field 'energies': {exc}") from exc
    state_node = _require(doc, "state", path)
    if not isinstance(state_node, dict):
        raise ProblemFileError(f"{path}: field 'state' must be an object")
    has_pops = "populations" in state_node
    has_matrix = "matrix" in state_node
    if has_pops == has_matrix:
        raise ProblemFileError(
            f"{path}: field 'state' needs exactly one of 'populations' or 'matrix'")
    try:
        if has_pops:
            state = QuantumState.diagonal(np.array(state_node["populations"],
                                                   dtype=float))
        else:
            state = QuantumState.full(_as_matrix(state_node["matrix"], path,
                                                 "state.matrix."))
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{path}: field 'state': {exc}") from exc
    except ValidationError as exc:
        raise ProblemFileError(
            f"{path}: field 'state.{'populations' if has_pops else 'matrix'}': "
            f"{exc}") from exc
    if state.dim != battery.dim:
        raise ProblemFileError(
            f"{path}: state dimension {state.dim} != number of energies "
            f"{battery.dim}")
    return battery, state, doc.get("label")


def load_schedule(path: str) -> ControlSchedule:
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise ProblemFileError(f"{path}: top level must be a JSON array of segments")
    pairs = []
    for i, seg in enumerate(doc):
        if not isinstance(seg, dict):
            raise ProblemFileError(f"{path}: segment {i} must be an object")
        duration = _require(seg, "duration", path, f"[{i}].")
        control = _require(seg, "control", path, f"[{i}].")
        pairs.append((duration, _as_matrix(control, path, f"[{i}].control.")))
    return ControlSchedule.from_pairs(pairs)


def cmd_ergotropy(args) -> int:
    battery, state, label = load_problem(args.problem)
    report = passive_state(state, battery)
    s_rho = entropy(state)
    match = match_entropy(battery, entropy_target(state, battery))
    bound = report.initial_energy - match.gibbs_energy
    payload = {
        "label": label,
        "dimension": battery.dim,
        "initial_energy": report.initial_energy,
        "passive_populations": [float(x) for x in report.passive_populations],
        "passive_energy": report.passive_energy,
        "ergotropy": report.ergotropy,
        "entropy": s_rho,
        "beta_matched": match.beta,
        "thermodynamic_bound": bound,
        "bound_gap": bound - report.ergotropy,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    if label:
        print(f"label:               {label}")
    print(f"dimension:           {battery.dim}")
    print(f"initial energy:      {fmt(report.initial_energy)}")
    print("passive populations: "
          + " ".join(fmt(x) for x in report.passive_populations))
    print(f"passive energy:      {fmt(report.passive_energy)}")
    print(f"ergotropy:           {fmt(report.ergotropy)}")
    print(f"entropy (nats):      {fmt(s_rho)}")
    print(f"matched beta:        {fmt(match.beta)}"
          + ("  (saturated)" if match.saturated else ""))
    print(f"thermodynamic bound: {fmt(bound)}")
    print(f"bound gap:           {fmt(bound - report.ergotropy)}")
    return EXIT_OK


def open_output(path: str):
    """Open a text file for writing, or raise ValidationError naming it."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_curve_csv(fh, result) -> None:
    """The curve as CSV to a file from open_output, header
    n,e_n,w_n,asymptote,gap, one row per n."""
    work = result.work
    lines = ["n,e_n,w_n,asymptote,gap"]
    for n in result.n_values:
        e_n = result.passive_energy[n]
        lines.append(",".join([str(n), fmt(e_n), fmt(work[n]),
                               fmt(result.asymptote), fmt(e_n - result.asymptote)]))
    try:
        fh.write("\n".join(lines) + "\n")
        fh.flush()
    except OSError as exc:
        raise ValidationError(f"{fh.name}: {exc}") from exc


def _curve_summary(result) -> str:
    ns = result.n_values
    if not ns:
        return "no feasible rows"
    first, last = ns[0], ns[-1]
    return (f"e({first})={fmt(result.passive_energy[first])} "
            f"e({last})={fmt(result.passive_energy[last])} "
            f"asymptote={fmt(result.asymptote)}")


def cmd_curve(args) -> int:
    battery, state, _ = load_problem(args.problem)
    # an unwritable path fails before the work, not after it
    with open_output(args.out) as fh:
        try:
            result = curve(state, battery, n_max=args.n_max)
            status = EXIT_OK
        except CapExceededError as exc:
            print(f"cap exceeded: {exc}", file=sys.stderr)
            result, status = exc.partial, EXIT_CAP
        write_curve_csv(fh, result)
    print(_curve_summary(result), file=sys.stderr)
    return status


def cmd_simulate(args) -> int:
    battery, state, _ = load_problem(args.problem)
    schedule = load_schedule(args.schedule)
    result = evolve(state, battery, schedule)
    w_max = passive_state(state, battery).ergotropy
    print(f"segments:            {len(schedule.segments)}")
    print(f"total duration:      {fmt(schedule.total_duration)}")
    print(f"work extracted:      {fmt(result.work)}")
    print("final populations:   "
          + " ".join(fmt(x) for x in result.final_state.diagonal_populations()))
    print(f"unitarity residual:  {fmt(result.unitarity_defect)}")
    if w_max > 1e-15:
        print(f"ergotropy fraction:  {fmt(result.work / w_max)}")
    else:
        print("ergotropy fraction:  n/a (state is passive)")
    return EXIT_OK


def cmd_oracle(args) -> int:
    battery, state, _ = load_problem(args.problem)
    spectrum = state.spectrum_descending
    # the brute-force cap binds long before the byte budget, so an
    # oversized n is refused before the compressed table is built
    brute = brute_force_oracle(spectrum, battery, args.n)
    compressed = passive_energy_per_copy(
        build_level_table(spectrum, battery, args.n))
    diff = abs(compressed - brute)
    print(f"n:                {args.n}")
    print(f"compressed e(n):  {fmt(compressed)}")
    print(f"brute-force e(n): {fmt(brute)}")
    print(f"difference:       {fmt(diff)}")
    if diff > args.tol:
        print(f"oracle mismatch: {fmt(diff)} > {fmt(args.tol)}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def finite_positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and its handlers look up what they call when they run."""
    parser = argparse.ArgumentParser(
        prog="ergokit",
        description="Work extraction from finite-level quantum batteries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ergotropy",
                       help="single-copy ergotropy and the entropy-matched bound")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_ergotropy)

    p = sub.add_parser("curve",
                       help="per-copy passive energies e(n) for n = 1..n_max as CSV")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--n-max", type=int, required=True, help="largest copy count")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("simulate",
                       help="run a piecewise-constant control schedule")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("schedule", help="schedule JSON file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle",
                       help="cross-check compressed e(n) against brute force")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--n", type=int, required=True, help="copy count")
    p.add_argument("--tol", type=finite_positive_float, default=1e-9,
                   help="mismatch threshold (default 1e-9)")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ErgokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
