"""gdict benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/gdict``.  The workload runs
in a fresh child interpreter (BLAS/OpenMP capped at one thread, gdict taken
from ``src``), so its peak RSS is its own.  With ``--trace 0``, four more
fresh children only set up, and ``setup_s`` is the median of the five
set-up times.  Human-readable lines come first; the last line of standard
output is the JSON result.  With ``--trace 1`` the metrics are the
per-layer ones and the spans are written under ``.bench_out/``.  Exit code
0 means a result was printed.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "synth", "arith", "keyrec")
RUN_TIMEOUT_S = 170  # for all children of one run together
SETUP_RUNS = 5  # fresh interpreters whose set-up times give setup_s
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "gdict" / "__init__.py").is_file():
        print(f"error: no gdict sources under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({name: "1" for name in SINGLE_THREAD})
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=tmp_root)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmpdir", tmpdir,
        "--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.json"),
    ]
    extra_setups = [] if args.trace else [cmd + ["--setup-only"]] * (SETUP_RUNS - 1)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    outputs = []
    try:
        for child in extra_setups + [cmd]:
            proc = subprocess.run(child, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(deadline - time.monotonic(), 1))
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"error: workload exited with code {proc.returncode}", file=sys.stderr)
                return proc.returncode or 4
            outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    except subprocess.TimeoutExpired:
        print(f"error: workload ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            tmp_root.rmdir()

    *setups, payload = outputs
    info, result = payload["info"], payload["result"]
    if not args.trace:
        times = [s["setup_s"] for s in setups] + [info.pop("setup_s")]
        info["setup_runs_s"] = times
        result["metrics"] = {"setup_s": {"value": statistics.median(times), "unit": "s"},
                             **result["metrics"]}
        if any(s["failed"] for s in setups):
            result["correct"] = False
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(info.pop("machine"), sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    fail_ratio = result["failed"] / result["attempted"]
    print(f"fail_ratio {fail_ratio:.6g} ({result['failed']}/{result['attempted']}), "
          f"correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
