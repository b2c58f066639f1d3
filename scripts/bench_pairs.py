#!/usr/bin/env python3
"""Compare two versions of ergokit with perfbench, in alternating pairs.

    python scripts/bench_pairs.py --parent REV [--change REV_OR_DIR] \\
        --workload curve_cold [--workload curve_batch ...] \\
        --seed0 41 --out BENCH_6.json [--trace-seed 51]

Each side is a checkout: a directory as given, or the tree of a git
revision exported with `git archive` into a temporary directory (so the
repository's own state is never touched). For every workload and each of
the 10 pairs k, perfbench/run.py runs once on each side with seed
seed0 + k for BENCHMARK.json's run_seconds; which side goes first is
drawn at random per pair (from seed0), because the machine drifts over
minutes and a fixed order hands the drift to one side.

The output JSON holds, per workload and end-to-end metric: the parent
and change medians, the parent's interquartile range, the relative
change of the medians and the number of pairs the change won (it is
better in that pair, in the metric's direction from BENCHMARK.json),
plus the operation and failure counts, the seeds, the order of each pair
and the machine line perfbench prints. --trace-seed adds one traced run
per side and workload with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the fewest pairs in which a claimed gain can win 9 of 10
PAIRS = 10


def checkout(rev_or_dir: str, tmp: Path, name: str) -> Path:
    path = Path(rev_or_dir)
    if path.is_dir():
        return path.resolve()
    dest = tmp / name
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev_or_dir],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One perfbench run; returns its result object and machine info."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {tree} ({workload}, seed "
                           f"{seed}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), {})
    return json.loads(lines[-1]), machine


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for metric, direction in better.items():
        parent = [r["parent"]["metrics"][metric]["value"] for r in runs]
        change = [r["change"]["metrics"][metric]["value"] for r in runs]
        sign = 1.0 if direction == "lower" else -1.0
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else (parent[0],) * 3)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[metric] = {
            "unit": runs[0]["parent"]["metrics"][metric]["unit"],
            "better": direction,
            "parent_median": p_med,
            "change_median": c_med,
            "rel_change": c_med / p_med - 1.0 if p_med else None,
            "parent_iqr": q3 - q1,
            "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > q3 - q1,
            "pairs_won": sum(sign * (c - p) < 0
                             for p, c in zip(parent, change)),
            "pairs": len(runs),
            "parent": parent,
            "change": change,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision or checkout directory")
    parser.add_argument("--change", default=None,
                        help="git revision or checkout directory "
                             "(default: this working tree)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed0", type=int, default=41)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    # the side order is drawn from seed0 too, so a rerun repeats it
    order_rng = random.Random(args.seed0)
    report = {"parent": args.parent,
              "change": args.change or "working tree",
              "seconds": seconds, "workloads": {}}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": checkout(args.parent, Path(tmp), "parent"),
                 "change": checkout(args.change or str(ROOT), Path(tmp),
                                    "change")}
        for workload in args.workload:
            runs = []
            for k in range(PAIRS):
                seed = args.seed0 + k
                sides = ["parent", "change"]
                order_rng.shuffle(sides)
                run = {"seed": seed, "first": sides[0]}
                for side in sides:
                    run[side], machine = run_bench(trees[side], workload,
                                                   seed, seconds, 0)
                    report.setdefault("machine", machine)
                runs.append(run)
                print(f"{workload} pair {k + 1}/{PAIRS} seed {seed} "
                      f"({sides[0]} first): wall_s parent "
                      f"{run['parent']['metrics']['wall_s']['value']:.3f} "
                      f"change {run['change']['metrics']['wall_s']['value']:.3f}",
                      file=sys.stderr, flush=True)
            entry = {
                "seeds": [r["seed"] for r in runs],
                "first": [r["first"] for r in runs],
                "attempted": {s: sum(r[s]["attempted"] for r in runs)
                              for s in trees},
                "failed": {s: sum(r[s]["failed"] for r in runs)
                           for s in trees},
                "metrics": summarise(runs, better),
            }
            if args.trace_seed is not None:
                entry["traced"] = {"seed": args.trace_seed}
                for side in trees:
                    result, _ = run_bench(trees[side], workload,
                                          args.trace_seed, seconds, 1)
                    entry["traced"][side] = {
                        k: v["value"] for k, v in result["metrics"].items()}
            report["workloads"][workload] = entry

    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
