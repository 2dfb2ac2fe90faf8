"""The benchmark's self-check runs against the current program.

bench/workloads.py calls extract_blueprint, instantiate, evaluate and
build_instance by name, so a change that breaks the benchmark fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke ok" in proc.stdout
