"""scripts/bench_snapshot.py: the acceptance rules that ``pair_wins`` writes, on synthetic runs."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_snapshot.py"
_spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)

END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
              {"name": "op_ms_p50", "better": "lower", "bound": 0.2}]


def summary(ops, ms):
    """``summarize`` of one run per seed with the given metric values."""
    return bench_snapshot.summarize([
        {"correct": True, "attempted": 10, "failed": 0,
         "metrics": {"ops_per_s": {"value": x, "unit": "1/s"},
                     "op_ms_p50": {"value": y, "unit": "ms"}}}
        for x, y in zip(ops, ms)])


BASE = summary(ops=[10.0, 11.0, 12.0, 13.0, 14.0], ms=[5.0, 5.0, 5.0, 5.0, 5.0])


def test_resolved_gain():
    change = summary(ops=[15.0, 16.0, 17.0, 18.0, 19.0], ms=[4.0, 4.0, 4.0, 4.0, 4.0])
    out = bench_snapshot.pair_wins(change, BASE, END_TO_END)
    ops = out["ops_per_s"]
    assert (ops["wins"], ops["pairs"], ops["every_run_better"]) == (5, 5, True)
    assert ops["median_gap"] == 5.0 and ops["baseline_spread"] == 2.0
    assert ops["gain_resolved"] and ops["within_bound"]
    # lower is better: the gap is signed so that a gain is positive
    ms = out["op_ms_p50"]
    assert ms["median_gap"] == 1.0 and ms["baseline_spread"] == 0.0
    assert ms["gain_resolved"] and ms["within_bound"]


def test_gap_within_the_spread_is_not_resolved():
    # every pair won, but the median moved by less than the baseline's q3 - q1
    change = summary(ops=[10.5, 11.5, 12.5, 13.5, 14.5], ms=[5.0, 5.0, 5.0, 5.0, 5.0])
    ops = bench_snapshot.pair_wins(change, BASE, END_TO_END)["ops_per_s"]
    assert ops["wins"] == 5 and ops["median_gap"] == pytest.approx(0.5)
    assert not ops["gain_resolved"] and ops["within_bound"]


def test_too_few_wins_is_not_resolved():
    # a large median gap, but only 4 of 5 seeds won: below 9 in 10
    change = summary(ops=[9.0, 20.0, 20.0, 20.0, 20.0], ms=[5.0, 5.0, 5.0, 5.0, 5.0])
    ops = bench_snapshot.pair_wins(change, BASE, END_TO_END)["ops_per_s"]
    assert ops["wins"] == 4 and ops["median_gap"] > ops["baseline_spread"]
    assert not ops["gain_resolved"]


def test_bound():
    # baseline medians 12 /s and 5 ms, relative bound 0.2: 9.6 /s and 6 ms are the limits
    kept = summary(ops=[9.6] * 5, ms=[6.0] * 5)
    out = bench_snapshot.pair_wins(kept, BASE, END_TO_END)
    assert out["ops_per_s"]["within_bound"] and out["op_ms_p50"]["within_bound"]
    assert out["ops_per_s"]["median_gap"] == pytest.approx(-2.4)
    assert out["op_ms_p50"]["median_gap"] == -1.0
    worse = summary(ops=[9.5] * 5, ms=[6.1] * 5)
    out = bench_snapshot.pair_wins(worse, BASE, END_TO_END)
    assert not out["ops_per_s"]["within_bound"] and not out["op_ms_p50"]["within_bound"]
    assert out["op_ms_p50"]["wins"] == 0 and not out["op_ms_p50"]["gain_resolved"]
