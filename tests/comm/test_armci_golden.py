"""Golden outcomes for every rung of the ARMCI protocol ladder.

Each case runs a few one-sided operations on a small machine and pins the
simulated outcome bit for bit: the virtual elapsed time (``float.hex``),
the bytes each node link carried, the tracer's protocol and fault
counters, every rank's time buckets, and what each rank returned (payload
sums, exception names, RMW values).  The other ``tests/comm`` checks are
inequalities; these catch any drift in a latency expression, in the order
of fault draws, or in the event sequence of a protocol.

Rungs covered: same-domain memcpy (node and NUMA), zero-copy NIC,
host-assisted staging (``zero_copy=False``), strided descriptors, the
reliable protocol, injected losses and corruption, replica redirects after
a crash (oracle and detected), in-flight sweeps, cancellation, accumulate
and fetch-and-add.

The values live in ``armci_golden.json``.  After a deliberate modelling
change, rewrite them with::

    PYTHONPATH=src python tests/comm/test_armci_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.comm import run_parallel
from repro.comm.base import (GetFailedError, NodeCrashedError,
                             WaitTimeout)
from repro.machines import LINUX_MYRINET, SGI_ALTIX
from repro.sim.faults import DetectorConfig, FaultPlan, NodeCrash

GOLDEN = Path(__file__).with_name("armci_golden.json")
NO_ZC = LINUX_MYRINET.with_network(zero_copy=False)
SHAPE = (64, 64)  # 32 KiB of doubles per segment


def _fill(ctx, key="s", shape=SHAPE):
    seg = ctx.armci.malloc(key, shape)
    seg[...] = ctx.rank + np.arange(seg.size).reshape(shape) / seg.size
    return seg


def _sum(arr) -> str:
    return float(np.sum(arr)).hex()


# -- cases: (spec, nranks, fault plan, program) --------------------------------

def _get_from(target, busy=0.0, **get_kw):
    """Rank 0 gets the whole segment of ``target`` while ``target`` spends
    ``busy`` seconds computing (the host-assisted rungs steal from it)."""

    def prog(ctx):
        _fill(ctx)
        yield from ctx.mpi.barrier()
        if ctx.rank == 0:
            out = np.zeros(SHAPE)
            req = ctx.armci.nb_get(target, "s", out, **get_kw)
            yield from ctx.wait(req)
            return [_sum(out), req.duration.hex()]
        if ctx.rank == target and busy:
            yield from ctx.compute(busy)
        return None

    return prog


def _put_to(target, busy=0.0):
    """Rank 0 puts a block into ``target`` (then fences), plus one
    byte-level put; ``target`` computes for ``busy`` seconds meanwhile."""

    def prog(ctx):
        seg = _fill(ctx)
        yield from ctx.mpi.barrier()
        mine = None
        if ctx.rank == 0:
            ctx.armci.nb_put(target, "s", np.full(SHAPE, 2.5))
            yield from ctx.armci.fence(target)
            req = ctx.armci.nb_put_bytes(target, 1 << 16)
            yield from ctx.wait(req)
            mine = [req.duration.hex()]
        elif ctx.rank == target and busy:
            yield from ctx.compute(busy)
        yield from ctx.mpi.barrier()
        return mine if ctx.rank == 0 else _sum(seg)

    return prog


def _strided_get(target, busy=1e-4):
    """A 64-segment column section, then its byte-level twin."""

    def prog(ctx):
        _fill(ctx)
        yield from ctx.mpi.barrier()
        if ctx.rank == target:
            yield from ctx.compute(busy)
        if ctx.rank == 0:
            out = np.zeros((64, 8))
            req = ctx.armci.nb_get(target, "s", out,
                                   src_index=(slice(0, 64), slice(8, 16)))
            yield from ctx.wait(req)
            breq = ctx.armci.nb_get_bytes(target, 4096.0, segments=64)
            yield from ctx.wait(breq)
            return [_sum(out), req.duration.hex(), breq.duration.hex()]
        return None

    return prog


def _acc_into(target, busy=0.0):
    """Rank 0 accumulates into ``target`` twice: nonblocking then fenced,
    and blocking."""

    def prog(ctx):
        seg = _fill(ctx)
        yield from ctx.mpi.barrier()
        mine = None
        if ctx.rank == 0:
            req = ctx.armci.nb_acc(target, "s", np.ones(SHAPE), scale=0.5)
            yield from ctx.armci.fence()
            yield from ctx.armci.acc(target, "s", np.ones(SHAPE))
            mine = [req.duration.hex()]
        elif ctx.rank == target and busy:
            yield from ctx.compute(busy)
        yield from ctx.mpi.barrier()
        return mine if ctx.rank == 0 else _sum(seg)

    return prog


def _fetch_add(ctx):
    """Three ranks bump a counter on busy rank 1 (same-domain for rank 0,
    remote for ranks 2 and 3)."""
    if ctx.rank == 1:
        ctx.armci.rmw_counter("ticket", initial=10)
    yield from ctx.mpi.barrier()
    if ctx.rank == 1:
        yield from ctx.compute(1e-4)
        return None
    seen = []
    for _ in range(2):
        seen.append((yield from ctx.armci.rmw_fetch_add(1, "ticket", ctx.rank + 1)))
    return seen


def _fault_draws(ctx):
    """Eight gets through the seeded loss/corruption draws: a same-domain
    get (never drawn), remote gets (loss drawn first, corruption only on
    survivors), a reliable get and an RMW (both exempt)."""
    _fill(ctx)
    if ctx.rank == 1:
        ctx.armci.rmw_counter("c")
    yield from ctx.mpi.barrier()
    if ctx.rank != 0:
        return None
    seen = []
    for i, (target, kw) in enumerate([(1, {}), (2, {}), (3, {}), (2, {}),
                                      (2, {"reliable": True}), (3, {}),
                                      (2, {}), (3, {})]):
        out = np.zeros(SHAPE)
        req = ctx.armci.nb_get(target, "s", out, **kw)
        try:
            yield from ctx.wait(req)
            seen.append([i, req.corrupted, _sum(out)])
        except GetFailedError:
            seen.append([i, "lost", ctx.now.hex()])
        if i == 3:
            yield from ctx.armci.rmw_fetch_add(1, "c")
    return seen


def _lost_get(ctx):
    """An injected loss surfaces after the detection delay; the reliable
    re-issue is exempt from the draw."""
    _fill(ctx)
    yield from ctx.mpi.barrier()
    if ctx.rank != 0:
        return None
    out = np.zeros(SHAPE)
    try:
        yield from ctx.wait(ctx.armci.nb_get(2, "s", out))
        first = "completed"
    except GetFailedError:
        first = ctx.now.hex()
    req = ctx.armci.nb_get(2, "s", out, reliable=True)
    yield from ctx.wait(req)
    return [first, _sum(out), req.duration.hex()]


def _corrupt_get(ctx):
    _fill(ctx)
    yield from ctx.mpi.barrier()
    if ctx.rank != 0:
        return None
    out = np.zeros(SHAPE)
    req = ctx.armci.nb_get(2, "s", out)
    yield from ctx.wait(req)
    clean = ctx.armci._rt.segment(2, "s")
    flipped = np.flatnonzero(out != clean).tolist()
    breq = ctx.armci.nb_get_bytes(3, 8192.0)
    yield from ctx.wait(breq)
    return [req.corrupted, flipped, _sum(out), breq.corrupted]


def _crash_redirect(ctx):
    """Node 1 (ranks 2, 3) dies mid-get.  Rank 0's in-flight get fails
    with NodeCrashedError; its later get, put, accumulate and byte-level
    transfers land on replicas.  Rank 2's own in-flight get is torn down
    silently with it."""
    seg = _fill(ctx, shape=(256, 256))
    yield from ctx.mpi.barrier()
    if ctx.rank == 0:
        out = np.zeros((256, 256))
        req = ctx.armci.nb_get(2, "s", out)
        try:
            yield from ctx.wait(req)
            first = "completed"
        except NodeCrashedError:
            first = "swept"
        yield from ctx.armci.get(2, "s", out)
        yield from ctx.armci.put(3, "s", np.ones((256, 256)))
        yield from ctx.armci.acc(2, "s", np.ones((256, 256)))
        yield from ctx.wait(ctx.armci.nb_get_bytes(3, 4096.0))
        yield from ctx.wait(ctx.armci.nb_put_bytes(2, 4096.0))
        return [first, _sum(out), ctx.now.hex()]
    if ctx.rank == 2:
        out = np.zeros((256, 256))
        yield from ctx.armci.get(5, "s", out)
        return "unreachable"
    yield from ctx.compute(3e-3)
    return _sum(seg)


def _detected_redirect(ctx):
    """Under a heartbeat detector, a get to node 1 after its confirmed
    death is routed by rank 0's membership view to a replica."""
    _fill(ctx)
    yield from ctx.mpi.barrier()
    if ctx.rank == 0:
        yield from ctx.compute(2e-3)
        out = np.zeros(SHAPE)
        yield from ctx.armci.get(2, "s", out)
        yield from ctx.armci.put(3, "s", np.ones(SHAPE))
        return [_sum(out), ctx.now.hex()]
    if ctx.rank in (2, 3):
        yield from ctx.compute(3e-3)
    return None


def _cancel(ctx):
    """Timed-out waits cancel a shared-memory get and a remote get (whose
    target is busy, so a host-assisted get is cancelled while queued for
    the target's CPU)."""
    _fill(ctx, shape=(256, 256))
    yield from ctx.mpi.barrier()
    if ctx.rank == 2:
        yield from ctx.compute(1e-4)
    if ctx.rank != 0:
        return None
    seen = []
    for target, timeout in ((1, 2e-5), (2, 5e-5)):
        out = np.zeros((256, 256))
        req = ctx.armci.nb_get(target, "s", out)
        try:
            yield from req.wait(timeout=timeout)
            seen.append("completed")
        except WaitTimeout:
            seen.append([_sum(out), ctx.now.hex()])
    out = np.zeros((256, 256))
    yield from ctx.armci.get(2, "s", out)
    seen.append(_sum(out))
    return seen


CRASH = FaultPlan(crashes=(NodeCrash(node=1, t_fail=1e-3),))
DETECTED = FaultPlan(
    crashes=(NodeCrash(node=1, t_fail=2e-4),),
    detector=DetectorConfig(period=1e-4, timeout=4e-4, confirm_grace=2e-4))

CASES = {
    "same-domain-get": (LINUX_MYRINET, 4, None, _get_from(1, busy=1e-4)),
    "same-domain-get-numa": (SGI_ALTIX, 4, None, _get_from(2)),
    "same-domain-put": (LINUX_MYRINET, 4, None, _put_to(1, busy=1e-4)),
    "zero-copy-get": (LINUX_MYRINET, 4, None, _get_from(2, busy=1e-4)),
    "zero-copy-put": (LINUX_MYRINET, 4, None, _put_to(2, busy=1e-4)),
    "host-assisted-get": (NO_ZC, 4, None, _get_from(2, busy=1e-4)),
    "host-assisted-put": (NO_ZC, 4, None, _put_to(2, busy=1e-4)),
    "strided-get": (LINUX_MYRINET, 4, None, _strided_get(2)),
    "strided-get-host-assisted": (NO_ZC, 4, None, _strided_get(2)),
    "reliable-get-zero-copy": (LINUX_MYRINET, 4, None,
                               _get_from(2, busy=1e-4, reliable=True)),
    "get-loss": (LINUX_MYRINET, 4, FaultPlan(get_fail_prob=1.0), _lost_get),
    "get-loss-host-assisted": (NO_ZC, 4, FaultPlan(get_fail_prob=1.0),
                               _lost_get),
    "fault-draws": (LINUX_MYRINET, 4,
                    FaultPlan(get_fail_prob=0.3, corruption_rate=0.4, seed=3),
                    _fault_draws),
    "fault-draws-host-assisted": (
        NO_ZC, 4, FaultPlan(get_fail_prob=0.3, corruption_rate=0.4, seed=3),
        _fault_draws),
    "corruption": (LINUX_MYRINET, 4, FaultPlan(corruption_rate=1.0),
                   _corrupt_get),
    "corruption-host-assisted": (NO_ZC, 4, FaultPlan(corruption_rate=1.0),
                                 _corrupt_get),
    "crash-redirect": (LINUX_MYRINET, 8, CRASH, _crash_redirect),
    "crash-redirect-host-assisted": (NO_ZC, 8, CRASH, _crash_redirect),
    "detected-redirect": (LINUX_MYRINET, 8, DETECTED, _detected_redirect),
    "cancel": (LINUX_MYRINET, 4, None, _cancel),
    "cancel-host-assisted": (NO_ZC, 4, None, _cancel),
    "acc-same-domain": (LINUX_MYRINET, 4, None, _acc_into(1, busy=1e-4)),
    "acc-remote": (LINUX_MYRINET, 4, None, _acc_into(2, busy=1e-4)),
    "rmw-fetch-add": (LINUX_MYRINET, 4, None, _fetch_add),
    "rmw-fetch-add-host-assisted": (NO_ZC, 4, None, _fetch_add),
}


def outcome(name: str) -> dict:
    """The pinned outcome of one case: nonzero link bytes and bucket
    fields only, host-implementation ``engine:`` counters left out."""
    spec, nranks, faults, prog = CASES[name]
    run = run_parallel(spec, nranks, prog, faults=faults)
    links = {}
    for i, node in enumerate(run.machine.nodes):
        for attr in ("nic_out", "nic_in", "mem"):
            moved = getattr(node, attr).bytes_carried
            if moved:
                links[f"{i}.{attr}"] = moved.hex()
    buckets = {}
    for rank, b in sorted(run.tracer.all_buckets().items()):
        fields = {f: getattr(b, f).hex() for f in
                  ("compute", "comm_wait", "copy", "mpi_overhead",
                   "sync_wait", "other") if getattr(b, f)}
        if fields:
            buckets[str(rank)] = fields
    counters = {k: v for k, v in sorted(run.tracer.counters.items())
                if not k.startswith("engine:")}
    return {"elapsed": run.elapsed.hex(), "links": links,
            "counters": counters, "buckets": buckets,
            "results": json.loads(json.dumps(run.results))}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_protocol_outcome_is_bit_identical(golden, name):
    assert outcome(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: outcome(name) for name in CASES},
                                 indent=1, sort_keys=True) + "\n")
