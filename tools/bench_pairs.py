"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload arith --pairs 10 --seconds 20 --seed 5

PARENT and CHANGE are the roots of two checkouts.  Each pair runs both
checkouts' ``perfbench/run.py --trace 0`` with the same seed; the side that
runs first alternates from pair to pair.  Before every run the
``__pycache__`` folders under the checkout's ``src/`` and ``perfbench/`` are
deleted, because cached bytecode lowers ``setup_s`` by a fifth or more.

For each end-to-end metric in PARENT's ``BENCHMARK.json`` the summary gives
both medians, the change's median against the parent's, the distance
between the parent's quartiles, how many pairs the change won (ties count
for neither side) and the metric's bound.  A metric is marked ``WORSE`` when
the change's median is worse than the parent's by more than the bound, and
``unresolved`` when the parent's own quartiles lie further apart than the
bound.  Any run whose result reads ``correct: false`` or counts failed
operations is flagged.

After the pairs, each checkout runs once more with ``--trace 1`` and the
same seed.  For each such run the summary gives ``correct``,
``all_gates_traced``, ``traced_outputs_identical`` and the share of a
traced operation's time that falls outside every layer span, against the
benchmark's 0.2% gate, and flags a run that fails any of them.  Exit code 0
means every run finished.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def clear_bytecode(root: Path) -> None:
    for top in ("src", "perfbench"):
        for cache in (root / top).rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)


# perfbench/child.py's MAX_UNATTRIBUTED: a traced run reads correct only
# while at most this share of its op time falls outside every layer span.
UNATTRIBUTED_GATE = 0.002


def parse_output(stdout: str) -> dict:
    """A ``perfbench/run.py`` run's JSON result, its last line, with the
    object on its ``info`` line under the key ``info``."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = next((json.loads(line[len("info "):]) for line in lines
                           if line.startswith("info ")), {})
    return result


def run_once(root: Path, workload: str, seconds: int, seed: int, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its parsed output."""
    clear_bytecode(root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: perfbench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return parse_output(proc.stdout)


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """Summary lines for runs paired by position: ``parent[i]`` against
    ``change[i]``, each a ``perfbench/run.py`` result."""
    lines = [f"{'metric':14s} {'parent':>11s} {'change':>11s} {'change/parent':>13s} "
             f"{'parent IQR':>11s} {'wins':>6s} {'bound':>6s}"]
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        if not all(name in run["metrics"] for run in parent + change):
            lines.append(f"{name:14s} absent from some runs")
            continue
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        mid_before, mid_after = statistics.median(before), statistics.median(after)
        spread = _quartile_spread(before)
        ratio = mid_after / mid_before if mid_before else float("nan")
        worse_by = (ratio - 1) if lower else (1 - ratio)
        if worse_by > bound:
            verdict = "WORSE"
        elif mid_before and spread / abs(mid_before) > bound:
            verdict = "unresolved"
        else:
            verdict = ""
        lines.append(f"{name:14s} {mid_before:11.5g} {mid_after:11.5g} {ratio:13.4f} "
                     f"{spread:11.3g} {wins:3d}/{len(before):<2d} {bound:6.0%} {verdict}".rstrip())
    for side, runs in (("parent", parent), ("change", change)):
        for i, run in enumerate(runs):
            if not run["correct"] or run["failed"]:
                lines.append(f"FLAG: {side} run {i + 1}: correct {run['correct']}, "
                             f"{run['failed']}/{run['attempted']} operations failed")
    return lines


def summarize_traced(traced: dict[str, dict]) -> list[str]:
    """One line per side's ``--trace 1`` run, plus a flag for each run that
    is incorrect, fails an operation, misses a gate, changes an output
    under tracing or leaves more than the gate's share unattributed."""
    lines = [f"traced runs (unattributed gate {UNATTRIBUTED_GATE:.1%}):"]
    for side, run in traced.items():
        info = run["info"]
        checks = {"correct": run["correct"],
                  "all_gates_traced": info.get("all_gates_traced"),
                  "traced_outputs_identical": info.get("traced_outputs_identical")}
        share = info.get("unattributed_share", float("nan"))
        lines.append(f"{side}: " + ", ".join(f"{k} {v}" for k, v in checks.items())
                     + f", unattributed_share {share:.3%}, "
                     f"{run['failed']}/{run['attempted']} operations failed")
        failing = [k for k, v in checks.items() if v is not True]
        if not share <= UNATTRIBUTED_GATE:
            failing.append("unattributed_share")
        if run["failed"]:
            failing.append("failed operations")
        if failing:
            lines.append(f"FLAG: {side} traced run fails {', '.join(failing)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    roots = {"parent": args.parent, "change": args.change}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_once(roots[side], args.workload, args.seconds, args.seed))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    traced = {}
    for side in ("parent", "change"):
        try:
            traced[side] = run_once(roots[side], args.workload, args.seconds, args.seed, trace=1)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"workload {args.workload}, {args.pairs} pairs, {args.seconds} s, seed {args.seed}")
    print("\n".join(summarize(runs["parent"], runs["change"], end_to_end)))
    for side, side_runs in runs.items():
        for i, run in enumerate(side_runs):
            values = (f"{name}={metric['value']:.6g}" for name, metric in run["metrics"].items())
            print(f"{side} run {i + 1}: " + " ".join(values))
    print("\n".join(summarize_traced(traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
