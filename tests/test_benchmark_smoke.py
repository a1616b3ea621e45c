"""One short traced run of each benchmark workload.

The traced path looks up every gdict name the benchmark wraps or reads, so
removing or renaming one fails here.  The runs write only to the
gitignored ``.bench_out/`` and ``.bench_tmp/`` at the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["search", "synth", "arith", "keyrec"])
def test_traced_run_succeeds(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[len("info "):])
    result = json.loads(lines[-1])
    assert result["failed"] == 0
    assert info["all_gates_traced"]
    assert info["traced_outputs_identical"]
