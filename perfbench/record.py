"""Record the reference outcomes the benchmark checks every point against.

    python3 perfbench/record.py --workload rma-cluster [--workload ...]

For every seed variant of each workload, runs each point whose inputs have
no reference yet, in this process, and writes ``reference/<workload>.json``:
per point key, the virtual elapsed and GFLOP/s as ``float.hex`` and the
sha256 of the whole simulated outcome (``workloads.outcome``).  A point
that fails is reported and left out, so the benchmark then fails it too.
Re-record only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def record(workload: str) -> int:
    path = HERE / "reference" / f"{workload}.json"
    points: dict[str, dict] = {}
    failures = 0
    cache_root = HERE.parent / ".perfbench" / "record-cache"
    for variant in range(wl.VARIANTS):
        built = wl.build(workload, variant)
        missing = {p.key for p in built if p.key not in points}
        # a faulted point needs the healthy run that times its crash
        missing |= {p.crash_after for p in built
                    if p.key in missing and p.crash_after}
        todo = [p for p in built if p.key in missing]
        if not todo:
            continue
        timer = wl.Timer()
        if workload in wl.THROUGH_SWEEP:
            runs, _ = wl.run_sweep(todo, timer, cache_root / str(variant))
        else:
            runs = wl.run_direct(todo, timer)
        for run in runs:
            if run.error is not None:
                failures += 1
                print(f"FAILED {run.key}: {run.error}", flush=True)
                continue
            points[run.key] = {"elapsed": run.elapsed, "gflops": run.gflops,
                               "digest": run.digest}
            shown = {k: v for k, v in run.counts.items()
                     if k.split(".")[0] in ("engine", "net")}
            print(f"{run.key} {shown}", flush=True)
        print(f"variant {variant}: {timer.wall_s:.1f}s", flush=True)
    shutil.rmtree(cache_root, ignore_errors=True)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "variants": wl.VARIANTS,
                                "points": dict(sorted(points.items()))},
                               indent=1) + "\n")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", action="append", choices=wl.WORKLOADS,
                    required=True)
    args = ap.parse_args(argv)
    failures = sum(record(w) for w in args.workload)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
