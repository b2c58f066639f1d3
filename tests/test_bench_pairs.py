"""scripts/bench_pairs.py's summary of paired runs, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}]


def runs_of(parent, change):
    """Paired runs with the same values for both metrics."""
    def side(v):
        return {"metrics": {"wall_s": {"value": v, "unit": "s"},
                            "rate": {"value": v, "unit": "1/s"}}}
    return [{"parent": side(p), "change": side(c)}
            for p, c in zip(parent, change)]


def test_unchanged_runs_pass():
    out = bench_pairs.summarise(runs_of([1.0, 1.0, 1.0, 1.0], [1.0] * 4),
                                END_TO_END)
    for metric in ("wall_s", "rate"):
        assert out[metric]["bound"] == (0.25 if metric == "wall_s" else 0.05)
        assert out[metric]["rel_change"] == 0.0
        assert not out[metric]["worse_beyond_bound"]
        assert not out[metric]["unresolved"]
        assert out[metric]["pairs_won"] == 0


def test_worse_beyond_bound_follows_the_direction():
    # medians 1.0 -> 1.3: 30 % worse for "lower", 30 % better for "higher"
    out = bench_pairs.summarise(runs_of([1.0] * 5, [1.3] * 5), END_TO_END)
    assert out["wall_s"]["worse_beyond_bound"]
    assert not out["rate"]["worse_beyond_bound"]
    assert out["rate"]["pairs_won"] == 5
    # 1.0 -> 1.2 is inside wall_s's 25 % bound, 1.0 -> 0.9 outside rate's 5 %
    out = bench_pairs.summarise(runs_of([1.0] * 5, [1.2] * 5), END_TO_END)
    assert not out["wall_s"]["worse_beyond_bound"]
    out = bench_pairs.summarise(runs_of([1.0] * 5, [0.9] * 5), END_TO_END)
    assert out["rate"]["worse_beyond_bound"]


@pytest.mark.parametrize("change, unresolved", [
    ([1.0, 1.1, 1.2, 1.3, 1.4], True),    # overlaps the parent's runs
    ([0.4, 0.45, 0.5, 0.55, 0.59], False),  # every run beats every parent run
])
def test_unresolved_needs_a_wide_parent_and_overlap(change, unresolved):
    # parent IQR 0.5 exceeds 0.25 * median 1.2
    parent = [0.6, 0.7, 1.2, 1.2, 2.0]
    out = bench_pairs.summarise(runs_of(parent, change), END_TO_END[:1])
    assert out["wall_s"]["parent_iqr"] == pytest.approx(0.5)
    assert out["wall_s"]["unresolved"] is unresolved


def test_pass_count_reads_the_summary_line():
    stdout = ("state_sweep seed 81: 17 passes, 8500 operations, 0 failed, "
              "error_rate 0\n"
              "  wall_s                                       1.12 s  (n=17)\n"
              'machine {"nproc": 2}\n{"correct": true}\n')
    assert bench_pairs.pass_count(stdout) == 17
    with pytest.raises(RuntimeError, match="no pass count"):
        bench_pairs.pass_count('{"correct": true}\n')


def test_rss_slope_against_the_pass_count():
    def side(passes, rss):
        return {"passes": passes, "metrics": {"peak_rss_mb": {"value": rss}}}
    # peak_rss_mb = 40 + 0.5 * passes on both sides
    runs = [{"parent": side(p, 40 + 0.5 * p), "change": side(c, 40 + 0.5 * c)}
            for p, c in ((18, 22), (20, 24), (19, 23))]
    assert bench_pairs.rss_mb_per_pass(runs) == pytest.approx(0.5)
    # more passes on flat memory: slope 0
    runs = [{"parent": side(p, 40.0), "change": side(c, 40.0)}
            for p, c in ((18, 22), (20, 24), (19, 23))]
    assert bench_pairs.rss_mb_per_pass(runs) == 0.0
    same = [{"parent": side(20, 40.0), "change": side(20, 41.0)}] * 3
    assert bench_pairs.rss_mb_per_pass(same) is None
