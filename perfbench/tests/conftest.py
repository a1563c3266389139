"""Helpers for the benchmark's own tests (``python3 -m pytest perfbench/tests``)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

from run import ONE_THREAD  # noqa: E402


def run_child(workload: str, seed: int, scratch: Path, *flags: str) -> dict:
    """One reduced pass of ``workload`` in a fresh process, as run.py runs
    full ones."""
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
            "--seed", str(seed), "--scratch", str(scratch), "--reduced",
            "--t0", repr(time.monotonic()), *flags]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, timeout=120,
                          env=dict(os.environ, **ONE_THREAD), check=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])
