"""ergokit benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from its src/ directory. All inputs are generated from --seed
before any timing. Each pass runs the workload's whole operation list
once, in a fresh single-threaded worker process (see worker.py); passes
repeat until S seconds have passed since the first worker was spawned,
and at least MIN_PASSES times. Outputs are checked after the run, outside the timed
part, and every pass must reproduce the first pass's outputs bit for bit.

--trace 0 reports the end-to-end metrics (medians over passes):
  wall_s       timed part of one pass, i.e. time to a solution
  setup_s      worker spawn until ready: interpreter, import ergokit,
               warm-up; input generation and loading are excluded
  op_ms_p50    latency of one operation, pooled over passes
  op_ms_p90
  peak_rss_mb  worker ru_maxrss
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracing.PER_LAYER from the traced ones, plus
trace.overhead_frac, the traced wall_s over the untraced one, minus 1.

The last stdout line is one JSON object: correct, attempted, failed
(operations that raised, exited non-zero, or failed a check, counted
over all passes; failed / attempted is the error rate) and metrics.
Working files go to .perfbench/ in the checkout and the run's own
directory there is removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def run_pass(workload, size, run_dir, pass_id, traced):
    """Spawn a worker, time its set-up, let it run, return its report."""
    env = dict(os.environ)
    env.pop("ERGOKIT_MAX_COMPOSITIONS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(HERE / "worker.py"), workload, size,
           str(run_dir), str(pass_id)] + (["--trace"] if traced else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() == "ready":
            proc.stdin.write("go\n")
            proc.stdin.close()
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"worker for {workload} pass {pass_id} exited "
                         f"with code {code}")
    report = json.loads((run_dir / f"pass-{pass_id}.json").read_text(
        encoding="utf-8"))
    report["setup_s"] = setup_s
    report["traced"] = traced
    return report


def count_failures(workload, spec, passes):
    """Failed operations over all passes, with the first few messages."""
    first = passes[0]
    errors = [(int(i), msg) for i, msg in first["errors"].items()]
    outputs = first["outputs"]
    errors += workload.check(spec, {i: out for i, out in enumerate(outputs)
                                    if out is not None})
    bad_first = {i for i, _ in errors}
    failed = 0
    for p in passes:
        bad = set(bad_first) | {int(i) for i in p["errors"]}
        bad |= {i for i, out in enumerate(p["outputs"]) if out != outputs[i]}
        failed += len(bad)
        if p is not first and bad - bad_first:
            errors.append((min(bad - bad_first),
                           "output differs from the first pass"))
    return failed, errors


def end_to_end(passes):
    op_ms = [1e3 * t for p in passes for t in p["op_s"]]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"wall_s": len(passes), "setup_s": len(passes),
               "op_ms_p50": len(op_ms), "op_ms_p90": len(op_ms),
               "peak_rss_mb": len(passes)}
    return {k: (v, END_TO_END_UNITS[k], samples[k]) for k, v in values.items()}


def per_layer(passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    layers = [p["layers"] for p in traced]
    out = {}
    for name, (unit, _) in tracing.PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = (statistics.median(p["wall_s"] for p in traced)
                     / statistics.median(p["wall_s"] for p in plain) - 1.0)
        elif name in tracing.COUNT_METRICS:
            value = layers[0][name]
            if any(lay[name] != value for lay in layers):
                print(f"warning: {name} differs between passes: "
                      f"{[lay[name] for lay in layers]}", file=sys.stderr)
        else:
            value = statistics.median(lay[name] for lay in layers)
        out[name] = (value, unit, len(traced))
    return out


def machine_info():
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = platform.processor() or None
    try:
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size"
                          ).read_text().strip()
    except OSError:
        info["l3"] = None
    try:
        info["ram_gb"] = round(os.sysconf("SC_PHYS_PAGES")
                               * os.sysconf("SC_PAGE_SIZE") / 2**30, 2)
    except (ValueError, OSError):
        info["ram_gb"] = None
    info["threads"] = "OMP/OPENBLAS/MKL_NUM_THREADS=1 in the worker"
    return info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ergokit" / "__init__.py").is_file():
        print(f"error: no ergokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"
    out_dir = ROOT / ".perfbench"
    run_dir = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            tracing.resolve()
        spec = workload.generate(np.random.default_rng(args.seed), size,
                                 run_dir, ROOT)
        (run_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        passes = []
        started = time.perf_counter()
        min_passes = 2 if args.trace else MIN_PASSES
        while (len(passes) < min_passes
               or time.perf_counter() - started < args.seconds):
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args.workload, size, run_dir,
                                   len(passes), traced))
        failed, errors = count_failures(workload, spec, passes)
    except (BenchError, tracing.TraceSetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(p["op_s"]) for p in passes)
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes)
    for i, msg in errors[:10]:
        print(f"check failed: operation {i}: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed, "
          f"error_rate {failed / attempted:.6g}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}  (n={n})")
    print("machine " + json.dumps(machine_info()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
