"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace, cwd=ROOT, bench_dir=HERE):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result["metrics"]


def units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_matches_the_harness():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert list(units("per_layer")) == list(tracing.PER_LAYER)
    for name, (unit, better) in tracing.PER_LAYER.items():
        entry = next(m for m in BENCH["per_layer"] if m["name"] == name)
        assert (entry["unit"], entry["better"]) == (unit, better)
    assert {m["name"] for m in BENCH["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_units(workload):
    metrics = result_of(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    first, second = result_of(workload, 1), result_of(workload, 1)
    assert {k: v["unit"] for k, v in first.items()} == units("per_layer")
    for name in tracing.COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_traced_names_resolve():
    found = tracing.resolve()
    assert len(found) == sum(len(v) for v in tracing.LAYERS.values())


def test_missing_traced_name_fails_loudly():
    with pytest.raises(tracing.TraceSetupError, match="gibbs.no_such_name"):
        tracing.resolve({"gibbs": ["match_entropy", "no_such_name"]})


def test_install_patches_every_importer():
    import ergokit
    from ergokit import cli, ensemble, gibbs

    tracer = tracing.Tracer()
    tracer.install()
    assert ensemble.match_entropy is gibbs.match_entropy
    assert cli.match_entropy is gibbs.match_entropy
    assert ergokit.match_entropy is gibbs.match_entropy
    spec = ergokit.BatterySpec([0.0, 1.0, 1.5])
    ergokit.curve(ergokit.QuantumState.diagonal([0.2, 0.3, 0.5]), spec, 3)
    names = {span[0] for span in tracer.spans}
    assert {"ensemble.curve", "gibbs.match_entropy", "gibbs.gibbs_state",
            "ensemble.build_level_table", "battery.QuantumState.diagonal"} <= names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path, bench_dir=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert proc.stdout == ""
