"""The benchmark's tracer still finds every layer it measures.

perfbench/child.py wraps module-level names of the program (for example
montecarlo._decode_batch and montecarlo.encode) and reads some of their
arguments. A name a refactor removes makes its traced metrics read null;
these tests run each workload once, traced, the way perfbench/run.py does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sim-shared", "sim-tree-genie", "design")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_measures_every_layer(workload, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), workload, "0",
         str(tmp_path), "1", str(tmp_path / "spans.csv")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["exit_codes"] and set(report["exit_codes"]) == {0}, proc.stderr[-4000:]
    assert report["trace"]["unmeasured"] == []
