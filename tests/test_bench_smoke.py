"""The benchmark's own smoke run: tiny units of every workload, traced and untraced.

It fails when a library change breaks what ``bench/`` relies on, such as a
layer function the tracer wraps by name (``metropolis_sample`` among them).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
