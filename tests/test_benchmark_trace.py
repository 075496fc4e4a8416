"""The traced benchmark path runs against the current sources.

A traced run does what an end-to-end run does, and perfbench/tracing.py also
patches modules, lru_cache tables and Jet methods of vertstar by name; the
cli-check workload does so through perfbench/clitrace.py in each fresh
interpreter.  One short traced worker per workload must exit 0 with every op
and the control check passing."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["jacobi-ball", "moyal-assoc", "coherent-vertical",
                                      "cli-check"])
def test_traced_benchmark_worker_runs(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.4", "--mode", "trace",
           "--t0", repr(time.monotonic()), "--results", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0 and out["control_ok"], proc.stderr
