"""One pass of one workload, in a fresh process started by ``run.py``.

A fresh process per pass keeps the planner's module-level plan cache cold,
as it is in a ``repro`` invocation, and makes the peak RSS that of one
workload alone.  Prints one JSON line: the set-up time (from ``--t0``, the
parent's monotonic clock just before the spawn, to the first timed call),
host wall and CPU time of the timed calls, peak RSS, and each point's
checked outcome and counts; with ``--profile`` also the layer fold of a
cProfile taken over the timed calls only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--scratch", type=Path, required=True,
                    help="directory for the sweep's fresh result cache")
    ap.add_argument("--setup-only", action="store_true",
                    help="report the set-up time and exit before timing")
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--reduced", action="store_true",
                    help="the small shapes of the determinism test")
    args = ap.parse_args(argv)

    import repro
    import repro.bench.cache  # noqa: F401  (everything a pass calls)
    import repro.bench.parallel  # noqa: F401
    import repro.core.api  # noqa: F401
    import repro.sim.faults  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads as wl

    points = wl.build(args.workload, args.seed, reduced=args.reduced)
    cache_dir = None
    if args.workload in wl.THROUGH_SWEEP:
        cache_dir = args.scratch / f"cache-{os.getpid()}"
        cache_dir.mkdir(parents=True)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    timer = wl.Timer(profiler)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cache_stats = None
    if cache_dir is not None:
        runs, cache_stats = wl.run_sweep(points, timer, cache_dir)
    else:
        runs = wl.run_direct(points, timer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": setup_s,
        "wall_s": timer.wall_s,
        "cpu_s": timer.cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "runs": [vars(r) for r in runs],
        "cache": cache_stats,
    }
    if profiler is not None:
        import pstats

        import layers

        result["layers"] = layers.fold(pstats.Stats(profiler),
                                       layers.LayerMap(SRC))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
