"""The alternating-pairs summary, on canned run results."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def run(op_p50_s, ops_per_s, setup_s=0.2, correct=True, failed=0):
    metrics = {"op_p50_s": op_p50_s, "ops_per_s": ops_per_s, "setup_s": setup_s}
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}


def rows(lines):
    return {line.split()[0]: line.split() for line in lines[1:]}


def test_medians_spread_wins_and_bounds():
    parent = [run(0.10, 10.0), run(0.11, 9.5), run(0.12, 9.0), run(0.13, 8.5)]
    change = [run(0.09, 11.0), run(0.12, 9.5), run(0.10, 9.75), run(0.14, 6.0)]
    table = rows(bench_pairs.summarize(parent, change, END_TO_END))
    # Medians 0.115 -> 0.11; quartiles of the parent 0.1025 and 0.1275 by the
    # exclusive method: spread 0.025.  The change won pairs 1 and 3.
    assert table["op_p50_s"] == ["op_p50_s", "0.115", "0.11", "0.9565", "0.025", "2/4", "25%"]
    # Higher is better: pairs 1 and 3 won, pair 2 tied, pair 4 lost.
    assert table["ops_per_s"] == ["ops_per_s", "9.25", "9.625", "1.0405", "1.25", "2/4", "25%"]
    assert table["setup_s"][5] == "0/4"  # all ties


def test_worse_past_the_bound_and_unresolved():
    parent = [run(0.10, 10.0, 0.10), run(0.10, 10.0, 0.20), run(0.10, 10.0, 0.30)]
    change = [run(0.13, 7.0, 0.20), run(0.13, 7.0, 0.20), run(0.13, 7.0, 0.20)]
    table = rows(bench_pairs.summarize(parent, change, END_TO_END))
    assert table["op_p50_s"][-1] == "WORSE"    # 30% slower against a 25% bound
    assert table["ops_per_s"][-1] == "WORSE"   # 30% fewer
    assert table["setup_s"][-1] == "unresolved"  # the parent's quartiles lie 100% apart


def test_flags_incorrect_runs_and_missing_metrics():
    parent = [run(0.1, 10.0), run(0.1, 10.0, correct=False)]
    change = [run(0.1, 10.0, failed=3), run(0.1, 10.0)]
    del change[1]["metrics"]["setup_s"]
    lines = bench_pairs.summarize(parent, change, END_TO_END)
    assert "setup_s        absent from some runs" in lines
    assert lines[-2:] == [
        "FLAG: parent run 2: correct False, 0/40 operations failed",
        "FLAG: change run 1: correct True, 3/40 operations failed",
    ]
