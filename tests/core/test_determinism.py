"""Determinism regression: identical runs stay bit-identical.

The incremental allocator, heap compaction, and plan caching all reorder
*work*, not *results*: two identical ``srumma_multiply`` runs must produce
bit-identical virtual timings, per-rank statistics, and per-rank time
buckets.  Every figure benchmark relies on this (reruns must reproduce
results/*.txt exactly), so this test guards the whole optimisation layer.
"""

import numpy as np

from repro.comm.base import run_parallel
from repro.core.schedule import ScheduleOptions
from repro.core.srumma import SrummaOptions, srumma_rank
from repro.distarray.distribution import Block2D
from repro.machines.platforms import get_platform
from repro.sim.trace import Tracer


def _traced_run(nranks=16, mnk=256):
    """One synthetic cluster-flavour nonblocking run and its tracer."""
    spec = get_platform("linux-myrinet")  # cluster flavour, 2 CPUs/node
    options = SrummaOptions(flavor="cluster", nonblocking=True,
                            schedule=ScheduleOptions())
    p = q = int(np.sqrt(nranks))
    assert p * q == nranks
    dist = Block2D(mnk, mnk, p, q)
    tracer = Tracer()

    def rank_fn(ctx):
        yield from ctx.mpi.barrier()
        stats = yield from srumma_rank(ctx, dist, dist, dist, options=options)
        return stats

    run = run_parallel(spec, nranks, rank_fn, tracer=tracer)
    return run, tracer


def test_identical_runs_bit_identical():
    run1, tracer1 = _traced_run()
    run2, tracer2 = _traced_run()

    # Virtual elapsed: exact float equality, not approx.
    assert run1.elapsed == run2.elapsed

    # Per-rank RankStats (dataclass __eq__ compares every field, including
    # comm_time and peak_buffer_bytes floats) must match bitwise.
    assert run1.results == run2.results

    # Every rank's time buckets, field for field.
    assert tracer1.all_buckets() == tracer2.all_buckets()

    # Accounting buckets and counters too.
    assert tracer1.summary() == tracer2.summary()


def test_engine_counters_deterministic():
    """Steps/compactions are part of the deterministic execution, so they
    must also agree across identical runs (a cheap canary for any hidden
    nondeterminism in the heap hygiene)."""
    run1, _ = _traced_run(nranks=16, mnk=192)
    run2, _ = _traced_run(nranks=16, mnk=192)
    e1, e2 = run1.machine.engine, run2.machine.engine
    assert e1.steps == e2.steps
    assert e1.compactions == e2.compactions
    assert e1.pending_events == e2.pending_events == 0
