"""One pass of one workload, in a fresh single-threaded process.

Usage: worker.py WORKLOAD SIZE RUN_DIR PASS_ID [--trace]

Set-up is importing ergokit plus the workload's warm-up; the worker then
prints "ready" and waits for "go" on stdin. It loads the generated
inputs from RUN_DIR/spec.json, runs every operation once in the timed
part, and writes timings, outputs and (with --trace) per-layer numbers
to RUN_DIR/pass-PASS_ID.json. With --trace the spans of the pass are
also written to the directory above RUN_DIR as trace-WORKLOAD.jsonl.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:    # must precede the numpy import
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv):
    name, size, run_dir, pass_id = argv[:4]
    run_dir = Path(run_dir)
    traced = "--trace" in argv[4:]

    import ergokit  # noqa: F401  (the import is part of set-up)
    import tracing
    import workloads

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name]
    workload.warm_up(size)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if sys.stdin.readline().strip() != "go":
        return 3

    spec = json.loads((run_dir / "spec.json").read_text(encoding="utf-8"))
    items = workload.prepare(spec, run_dir, pass_id)
    results = [None] * len(items)
    errors = {}
    op_s = []
    clock = time.perf_counter
    t_start = clock()
    for i, item in enumerate(items):
        if tracer:
            tracer.op = i
        t0 = clock()
        try:
            results[i] = workload.run(spec, item)
        except Exception as exc:    # an operation failure, counted by the caller
            errors[i] = f"{type(exc).__name__}: {exc}"
        op_s.append(clock() - t0)
    wall_s = clock() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.op = -1

    payload = {
        "wall_s": wall_s,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
        "errors": {str(i): msg for i, msg in errors.items()},
        "outputs": [None if i in errors else workload.collect(spec, item, r)
                    for i, (item, r) in enumerate(zip(items, results))],
    }
    if tracer:
        payload["layers"] = tracer.summarize()
        tracer.write(run_dir.parent / f"trace-{name}.jsonl", t_start)
    (run_dir / f"pass-{pass_id}.json").write_text(json.dumps(payload),
                                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
