"""Host-cost benchmark of the SRUMMA simulator.

    python3 perfbench/run.py --workload rma-cluster --seed 0 --seconds 40 --trace 0

Runs passes of one workload (``rma-cluster``, ``bcast-sweep``,
``verified-faults``, or ``all``), each in a fresh process, until the next
pass would overrun ``--seconds``; then starts set-up-only processes until
there are at least five set-up samples.  Every point of every pass is
checked: it must not raise, real-payload products must verify against
numpy, each simulated outcome must equal the recorded reference for its
inputs (``reference/<workload>.json``), and every pass of a run must repeat
the first pass's outcomes and counts exactly.

``--trace 0`` reports the end-to-end metrics (medians over passes):
``wall_s`` and ``cpu_s`` of the timed calls, ``setup_s`` from spawn to the
first timed call, and ``peak_rss_mb``.  ``--trace 1`` runs one untraced
pass for the exact counts and one pass under cProfile, and reports the
per-layer metrics.  A human-readable summary, with ``fail_frac``, precedes
the last line of stdout, which is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

Exits 2 without a result when the program under ``src/`` is missing or a
pass process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, derived  # noqa: E402

MIN_SETUPS = 5
PASS_TIMEOUT_S = 170
# BLAS threads count toward the two cores the benchmark may use.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """A pass process failed: nothing can be measured."""


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run ``child.py`` once and return its JSON result."""
    env = dict(os.environ, **ONE_THREAD)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--scratch", str(SCRATCH), *flags]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} pass exceeded {PASS_TIMEOUT_S}s") \
            from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text())["points"]


class Checker:
    """Counts point runs and failures across the passes of one run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.first: dict[str, tuple] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, runs: list[dict]) -> None:
        for run in runs:
            self.attempted += 1
            problem = self._problem(run)
            if problem is not None:
                self.problems.append(f"{run['key']}: {problem}")

    def _problem(self, run: dict):
        if run["error"] is not None:
            return run["error"]
        ref = self.reference.get(run["key"])
        if ref is None:
            return "no reference outcome recorded for these inputs"
        for field in ("elapsed", "gflops", "digest"):
            if run[field] != ref[field]:
                return f"simulated {field} differs from the reference"
        seen = (run["digest"], json.dumps(run["counts"], sort_keys=True))
        if self.first.setdefault(run["key"], seen) != seen:
            return "outcome or counts differ between passes of one run"
        return None


def summed(runs: list[dict]) -> dict:
    totals: dict[str, float] = {}
    for run in runs:
        for name, value in run["counts"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


def per_layer_metrics(base: dict, traced: dict) -> dict:
    """Exact counts from an untraced pass, layer times from a traced one."""
    counts = summed(base["runs"])
    metrics = {k: v for k, v in counts.items() if not k.startswith("_")}
    metrics.update(derived(counts, base["wall_s"]))
    metrics.update(traced["layers"])
    numpy_s = traced["layers"]["numpy.self_s"]
    metrics["numpy.gflops_achieved"] = (
        counts["numpy.flops"] / numpy_s / 1e9 if numpy_s > 0 else 0.0)
    metrics["trace_overhead"] = traced["wall_s"] / base["wall_s"]
    cache = base["cache"] or {}
    for name in ("misses", "writes", "bytes_written"):
        metrics[f"cache.{name}"] = cache.get(name, 0)
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checker = Checker(load_reference(workload))
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(spawn(workload, seed))
        checker.check(passes[-1]["runs"])
        now = time.monotonic()
        # Start another pass only if one more like the last still fits.
        if trace or (now - start) + (now - began) > seconds:
            break

    if trace:
        traced = spawn(workload, seed, "--profile")
        checker.check(traced["runs"])
        metrics = per_layer_metrics(passes[0], traced)
        shown = {"passes": 1, "traced_wall_s": traced["wall_s"]}
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(workload, seed, "--setup-only")["setup_s"])
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
        }
        shown = {"passes": len(passes),
                 "wall_s_each": [round(p["wall_s"], 3) for p in passes]}
    return {"workload": workload, "metrics": metrics, "shown": shown,
            "attempted": checker.attempted, "failed": len(checker.problems),
            "problems": checker.problems}


UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "virt.comm_wait_s": "s", "virt.omega": "ratio", "numpy.flops": "flop",
    "numpy.bytes_copied": "B", "numpy.gflops_achieved": "GFLOP/s",
    "comm.bytes_fetched": "B", "cache.bytes_written": "B",
    "engine.host_us_per_step": "us", "net.touches_per_realloc": "ratio",
    "fault.repaired_per_detected": "ratio", "trace_overhead": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "share": "ratio"}.get(suffix, "count")


def report(out: dict, seed: int) -> None:
    """Human-readable lines; the JSON result line follows them."""
    w = out["workload"]
    frac = out["failed"] / out["attempted"]
    print(f"[perfbench] {w} seed={seed} {out['shown']}")
    for name, value in out["metrics"].items():
        print(f"  {w:<16} {name:<34} {value:>16.6g} {unit_of(name)}")
    print(f"  {w:<16} {'fail_frac':<34} {frac:>16.6g} ratio "
          f"({out['failed']} of {out['attempted']} point runs failed)")
    for problem in out["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so a running pass process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = []
    try:
        for name in names:
            outs.append(measure(name, args.seed, args.seconds,
                                bool(args.trace)))
            report(outs[-1], args.seed)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    prefix = len(outs) > 1
    metrics = {}
    for out in outs:
        for name, value in out["metrics"].items():
            key = f"{out['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit_of(name)}
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
