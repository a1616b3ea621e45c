"""One workload, run in this process: set up, measure a closed loop with one
client, check every output, and print one JSON line for ``run.py``.

Run through ``run.py``, which starts this file in a fresh interpreter so the
peak RSS belongs to the workload alone.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import gdict.sim  # noqa: E402
from tracing import Tracer, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _T0
RSS_AFTER_IMPORT_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

WARMUPS = 2  # untimed operations after the cold one
WARMUP_INDEX = 1_000_000  # set-up inputs come from their own index range
MAX_UNATTRIBUTED = 0.002  # share of a traced op's wall time outside every layer
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
MIN_OPS = 2 * TAIL_BEYOND + 1  # keeps the tail percentile at or above the median
TRACE_MIN_OPS = 3


class Phase:
    """Outcome of one measured loop."""

    def __init__(self):
        self.durations: list[float] = []
        self.digests: list[str] = []
        self.gates: list[int] = []
        self.applied: list[int] = []
        self.failed = 0


def run_op(wl, inp, i: int, phase: Phase, tracer=None) -> None:
    try:
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp)
            else:
                with tracer.span("bench.op"):
                    out = wl.run(inp)
        finally:
            phase.durations.append(time.perf_counter() - start)
        failures = wl.check(inp, out)
        phase.digests.append(wl.digest(inp, out))
        phase.gates.append(wl.gates(inp, out))
        phase.applied.append(wl.applied_gates(inp, out))
    except Exception:  # an operation that raises is a failed operation
        failures = [traceback.format_exc()]
        phase.digests.append("")
    finally:
        wl.cleanup(inp)
    if failures:
        phase.failed += 1
        print(f"op {i} failed: {failures[:3]}", file=sys.stderr)


def measure(wl, seed: int, seconds: float, tmpdir: str, min_ops: int, tracer=None) -> Phase:
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        run_op(wl, wl.make(seed, i, tmpdir), i, phase, tracer)
        i += 1
    return phase


def set_up(wl, seed: int, tmpdir: str) -> tuple[float, int]:
    """Set-up time of this interpreter and the failed set-up operations.

    The time is the import plus the first operation with its input
    generation, which pays for lazy imports, cache fills and any JIT; its
    output check runs after the clock stops.  The warm-ups that follow are
    not timed.
    """
    phase = Phase()
    start = time.perf_counter()
    inp = wl.make(seed, WARMUP_INDEX, tmpdir)
    make_s = time.perf_counter() - start
    run_op(wl, inp, WARMUP_INDEX, phase)
    setup_s = IMPORT_S + make_s + phase.durations[0]
    for k in range(1, 1 + WARMUPS):
        run_op(wl, wl.make(seed, WARMUP_INDEX + k, tmpdir), WARMUP_INDEX + k, phase)
    return setup_s, phase.failed


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    d = sorted(phase.durations)
    n = len(d)
    metrics = {
        "op_p50_s": (statistics.median(d), "s"),
        "op_tail_s": (d[n - 1 - TAIL_BEYOND], "s"),
        "ops_per_s": (n / sum(d), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "circuit_gates": (statistics.fmean(phase.gates) if phase.gates else 0.0, "count"),
    }
    info = {"ops": n, "op_tail_percentile": 100 * (n - TAIL_BEYOND) / n}
    return metrics, info


def cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_path": "numba" if gdict.sim.USE_NUMBA else "numpy",
        "max_qubits": gdict.sim.resolve_max_qubits(),
        "max_qubits_source": "env" if os.environ.get(gdict.sim.MAX_QUBITS_ENV) else "default",
        "caches": cache_sizes(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and stop")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    setup_s, setup_failed = set_up(wl, args.seed, args.tmpdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "failed": setup_failed}))
        return 0
    info = {"setup_s": setup_s, "setup_failed": setup_failed, "import_s": IMPORT_S,
            "rss_after_import_mb": RSS_AFTER_IMPORT_MB, "machine": machine()}
    if not args.trace:
        phase = measure(wl, args.seed, args.seconds, args.tmpdir, MIN_OPS)
        metrics, extra = end_to_end(phase)
        info.update(extra)
        correct = setup_failed == 0 and phase.failed == 0
    else:
        # Same inputs twice: untraced, then traced.  Their outputs must be
        # identical, and the ops/s difference is the tracing overhead.
        plain = measure(wl, args.seed, args.seconds / 2, args.tmpdir, TRACE_MIN_OPS)
        tracer = Tracer()
        with traced(tracer):
            phase = measure(wl, args.seed, args.seconds / 2, args.tmpdir, TRACE_MIN_OPS, tracer)
        common = min(len(plain.digests), len(phase.digests))
        identical = plain.digests[:common] == phase.digests[:common]
        metrics = tracer.metrics()
        plain_rate = len(plain.durations) / sum(plain.durations)
        traced_rate = len(phase.durations) / sum(phase.durations)
        metrics["trace.overhead_ratio"] = ((plain_rate - traced_rate) / plain_rate, "ratio")
        # Every call an operation makes into gdict must land in a layer span,
        # and the simulator wrappers must see every gate the outputs report.
        unattributed_share = metrics["trace.unattributed_s"][0] / metrics["trace.op_wall_s"][0]
        attributed = unattributed_share <= MAX_UNATTRIBUTED
        gates_seen = tracer.counts["sim.gates_applied"] == sum(phase.applied)
        tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
        info.update({
            "ops": len(phase.durations), "untraced_ops": len(plain.durations),
            "compared_ops": common, "traced_outputs_identical": identical,
            "unattributed_share": unattributed_share, "all_gates_traced": gates_seen,
            "spans_file": args.spans,
        })
        correct = (setup_failed == 0 and plain.failed == 0 and phase.failed == 0
                   and identical and attributed and gates_seen)
        phase.failed += plain.failed
        phase.durations += plain.durations
    result = {
        "correct": correct,
        "attempted": len(phase.durations),
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"info": info, "result": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
