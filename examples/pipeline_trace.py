#!/usr/bin/env python3
"""Watch SRUMMA's double-buffered pipeline in action (paper Fig. 3).

Runs a small multiply on one rank-pair-heavy configuration, wrapping one
rank's wait and dgemm calls, then prints a text timeline for that rank:
when it blocked waiting for its nonblocking gets, and when each dgemm
ran.  The point to see: get ``t+1`` is in flight while dgemm ``t``
computes, so wait times collapse after the pipeline fills.

    python examples/pipeline_trace.py
"""

import numpy as np

from repro.comm import run_parallel
from repro.core import SrummaOptions, srumma_rank
from repro.distarray import GlobalArray
from repro.machines import LINUX_MYRINET
from repro.sim import Machine, Tracer

N = 384
P = 8
WATCH_RANK = 0


def main() -> None:
    rng = np.random.default_rng(0)
    a_ref = rng.standard_normal((N, N))
    b_ref = rng.standard_normal((N, N))

    tracer = Tracer()
    machine = Machine(LINUX_MYRINET, P, tracer=tracer)
    timeline: list[tuple[float, float, str]] = []

    def prog(ctx):
        ga_a = GlobalArray.create(ctx, "A", N, N)
        ga_b = GlobalArray.create(ctx, "B", N, N)
        ga_c = GlobalArray.create(ctx, "C", N, N)
        ga_a.load(a_ref)
        ga_b.load(b_ref)
        yield from ctx.mpi.barrier()

        if ctx.rank != WATCH_RANK:
            yield from srumma_rank(ctx, ga_a, ga_b, ga_c)
            return

        # Shadow the watched rank with wrapped context methods that log.
        orig_wait_all = ctx.wait_all
        orig_dgemm = ctx.dgemm

        def wait_all(reqs):
            t0 = ctx.now
            yield from orig_wait_all(reqs)
            timeline.append((t0, ctx.now, f"wait ({len(reqs)} gets)"))

        def dgemm(a, b, c, **kw):
            t0 = ctx.now
            yield from orig_dgemm(a, b, c, **kw)
            timeline.append((t0, ctx.now, f"dgemm {a.shape}x{b.shape}"))

        ctx.wait_all = wait_all
        ctx.dgemm = dgemm
        yield from srumma_rank(ctx, ga_a, ga_b, ga_c,
                               options=SrummaOptions())

    run_parallel(machine, None, prog)

    print(f"rank {WATCH_RANK} timeline (N={N}, {P} CPUs, "
          f"{machine.spec.name}):\n")
    t_end = max(t1 for _, t1, _ in timeline)
    width = 60
    for t0, t1, what in timeline:
        a = int(width * t0 / t_end)
        b = max(a + 1, int(width * t1 / t_end))
        bar = " " * a + "#" * (b - a)
        print(f"  {t0 * 1e3:7.3f}-{t1 * 1e3:7.3f} ms |{bar:<{width}}| {what}")

    waits = sum(t1 - t0 for t0, t1, w in timeline if w.startswith("wait"))
    comp = sum(t1 - t0 for t0, t1, w in timeline if w.startswith("dgemm"))
    print(f"\n  compute {comp * 1e3:.3f} ms, wait {waits * 1e3:.3f} ms "
          f"({100 * waits / (waits + comp):.1f}% blocked)")
    print("  Note the long first wait (pipeline fill) and the short ones")
    print("  after it: each get overlapped the previous dgemm.")


if __name__ == "__main__":
    main()
