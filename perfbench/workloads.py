"""The benchmark's workloads: seeded points, one timed pass, checked outcomes.

A *pass* runs every point of one workload once, one after another in one
process (a closed loop, ``jobs=1``).  The seed picks each point's N from a
small list around the listed size, and the operand and fault-draw seeds;
``README.md`` beside this file says why each workload is built the way it
is.  Only the public entry points are called (``srumma_multiply`` and
``run_points``); what is checked and counted is read from the result
objects they return.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

VARIANTS = 32
"""Seeds are folded onto this many input variants, every one of which has
a recorded reference outcome (``reference.json``)."""

# Candidate sizes.  Each point keeps one block shape class across seeds,
# because the class decides how much work a point is (README.md has the
# counts) and a seed must not change what a workload measures.  On
# linux-myrinet at 128 CPUs, N % 16 in 1..7 is the ragged class that makes
# 35% more flows and 27% more engine steps than N = 2000.  A ragged N costs
# ibm-sp at 256 CPUs 3-4x the host time of a block-regular one, and the
# hierarchical point skips flow reallocation only at block-regular N.
_RAGGED_2000 = (1985, 1989, 1991, 2003, 2005, 2017, 2019, 2023)
_REGULAR_2000 = (1936, 1952, 1968, 1984, 2000, 2016, 2032, 2048)
_AROUND_2000 = (1988, 1991, 1996, 2000, 2003, 2008, 2013, 2017)
_AROUND_2048 = (2040, 2042, 2045, 2048, 2050, 2053, 2055, 2058)

# Reduced shapes for the determinism test: same recipes, seconds to run.
_REDUCED = {"ranks": {16: 8, 32: 16, 128: 16, 256: 32}, "n": 4}


@dataclass(frozen=True)
class Point:
    """One simulation of a workload; ``key`` names every input that decides
    its simulated outcome, and so its entry in the reference."""

    algorithm: str            # srumma | pdgemm | hierarchical
    machine: str
    nranks: int
    n: int
    payload: str = "synthetic"
    transa: bool = False
    seed: int = 0
    dynamic: bool = False
    crash_after: Optional[str] = None
    """Key of the healthy point whose elapsed times this run's fault plan."""

    @property
    def key(self) -> str:
        parts = [self.algorithm, self.machine, f"P{self.nranks}",
                 f"N{self.n}", self.payload]
        if self.transa:
            parts.append("transa")
        if self.dynamic:
            parts.append("dynamic")
        if self.payload == "real" or self.crash_after:
            parts.append(f"seed{self.seed}")
        if self.crash_after:
            parts.append("faults")
        return "/".join(parts)


def _pick(rng: random.Random, sizes, reduced: bool) -> int:
    n = rng.choice(sizes)
    return n // _REDUCED["n"] if reduced else n


def _ranks(p: int, reduced: bool) -> int:
    return _REDUCED["ranks"][p] if reduced else p


def build(workload: str, seed: int, reduced: bool = False) -> list[Point]:
    """The points of ``workload`` for ``seed``, in run order."""
    variant = seed % VARIANTS
    rng = random.Random(f"perfbench:{workload}:{variant}")
    if workload == "rma-cluster":
        return [
            Point("srumma", "linux-myrinet", _ranks(128, reduced),
                  _pick(rng, _RAGGED_2000, reduced)),
            Point("srumma", "ibm-sp", _ranks(256, reduced),
                  _pick(rng, _REGULAR_2000, reduced)),
        ]
    if workload == "bcast-sweep":
        return [
            Point("pdgemm", "linux-myrinet", _ranks(128, reduced),
                  _pick(rng, _AROUND_2000, reduced)),
            Point("pdgemm", "ibm-sp", _ranks(256, reduced),
                  _pick(rng, _AROUND_2000, reduced)),
            Point("hierarchical", "linux-myrinet", _ranks(256, reduced),
                  _pick(rng, _REGULAR_2000, reduced)),
        ]
    if workload == "verified-faults":
        p16, p32 = _ranks(16, reduced), _ranks(32, reduced)
        n_faulted = _pick(rng, _AROUND_2048, reduced)
        healthy = Point("srumma", "linux-myrinet", p32, n_faulted,
                        dynamic=True)
        return [
            Point("srumma", "linux-myrinet", p16,
                  _pick(rng, _AROUND_2048, reduced), "real", seed=variant),
            Point("srumma", "cray-x1", p16,
                  _pick(rng, _AROUND_2048, reduced), "real", seed=variant),
            Point("srumma", "sgi-altix", p16,
                  _pick(rng, _AROUND_2048, reduced), "real", seed=variant),
            Point("srumma", "ibm-sp", p16, _pick(rng, _AROUND_2048, reduced),
                  "real", transa=True, seed=variant),
            healthy,
            Point("srumma", "linux-myrinet", p32, n_faulted, "real",
                  seed=variant, dynamic=True, crash_after=healthy.key),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("rma-cluster", "bcast-sweep", "verified-faults")
THROUGH_SWEEP = frozenset({"bcast-sweep"})
"""Workloads that run the way ``repro sweep`` does: one ``run_points``
batch with ``jobs=1`` and a fresh on-disk ``ResultCache``."""


def fault_plan(point: Point, healthy_elapsed: float, nnodes: int):
    """The ``detection`` experiment's plan (node crash at half the healthy
    run, heartbeat detector with lost heartbeats) plus ABFT corruption and
    failed gets, all drawn from the point's seed."""
    from repro.sim.faults import DetectorConfig, FaultPlan, NodeCrash

    h = healthy_elapsed
    timeout = 0.05 * h
    return FaultPlan(
        crashes=(NodeCrash(node=nnodes - 1, t_fail=0.5 * h),),
        checkpoint_interval=2,
        get_timeout=0.25 * h,
        detector=DetectorConfig(period=timeout / 4, timeout=timeout,
                                confirm_grace=timeout / 2,
                                heartbeat_loss_prob=0.2),
        watchdog_grace=5.0 * h,
        corruption_rate=0.05,
        get_fail_prob=0.05,
        seed=point.seed)


# -- running ---------------------------------------------------------------

@dataclass
class PointRun:
    """One executed point: its error, or its outcome and counts."""

    key: str
    error: Optional[str] = None
    elapsed: Optional[str] = None
    gflops: Optional[str] = None
    digest: Optional[str] = None
    counts: dict = dataclasses.field(default_factory=dict)


def _options(point: Point):
    from repro.core.srumma import SrummaOptions

    return SrummaOptions(dynamic=True) if point.dynamic else None


def _spec(point: Point):
    from repro.machines.platforms import get_platform

    return get_platform(point.machine)


class Timer:
    """Host wall and CPU time summed over the timed calls of a pass; with a
    profiler, the same calls are profiled."""

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def measure(self):
        c0, w0 = time.process_time(), time.perf_counter()
        if self.profiler is not None:
            self.profiler.enable()
        try:
            yield
        finally:
            if self.profiler is not None:
                self.profiler.disable()
            self.wall_s += time.perf_counter() - w0
            self.cpu_s += time.process_time() - c0


def run_direct(points: list[Point], timer: Timer) -> list[PointRun]:
    """Run points one by one through ``srumma_multiply``."""
    from repro.core.api import srumma_multiply

    runs, elapsed_of = [], {}
    for point in points:
        run = PointRun(point.key)
        runs.append(run)
        spec = _spec(point)
        faults = None
        if point.crash_after is not None:
            if point.crash_after not in elapsed_of:
                run.error = "the healthy run that times the crash failed"
                continue
            faults = fault_plan(point, elapsed_of[point.crash_after],
                                spec.nodes_for(point.nranks))
        try:
            with timer.measure():
                res = srumma_multiply(
                    spec, point.nranks, point.n, point.n, point.n,
                    transa=point.transa, payload=point.payload,
                    verify=point.payload == "real", seed=point.seed,
                    options=_options(point), faults=faults)
        except Exception as exc:  # a failed point is counted, never skipped
            run.error = f"{type(exc).__name__}: {exc}"
            continue
        elapsed_of[point.key] = res.elapsed
        _record(run, point, res)
        del res
        # The result holds its matrices in reference cycles.  Collecting
        # them here, inside the timed region, charges freeing a point to
        # that point and keeps the next point's peak RSS from depending on
        # when the cyclic collector happens to run.
        with timer.measure():
            gc.collect()
    return runs


def run_sweep(points: list[Point], timer: Timer, cache_dir) -> tuple[
        list[PointRun], dict]:
    """Run points as one ``run_points(jobs=1)`` batch with a fresh on-disk
    cache.  The result objects behind each ``MatmulPoint`` are read by
    wrapping the multiply functions ``run_matmul`` calls."""
    import repro.bench.runner as runner
    from repro.bench.cache import ResultCache
    from repro.bench.parallel import PointSpec, run_points

    captured: list = []
    originals = {name: getattr(runner, name)
                 for name in ("pdgemm_multiply", "hierarchical_multiply")}

    def capturing(fn):
        def call(*args, **kwargs):
            res = fn(*args, **kwargs)
            captured.append(res)
            return res
        return call

    specs = [PointSpec(algorithm=p.algorithm, machine=_spec(p),
                       nranks=p.nranks, m=p.n, payload=p.payload,
                       verify=p.payload == "real", seed=p.seed,
                       options=_options(p))
             for p in points]
    cache = ResultCache(directory=cache_dir)
    error = None
    for name, fn in originals.items():
        setattr(runner, name, capturing(fn))
    try:
        with timer.measure():
            matmul_points = run_points(specs, jobs=1, cache=cache)
    except Exception as exc:  # a failed point is counted, never skipped
        error = f"{type(exc).__name__}: {exc}"
        matmul_points = []
    finally:
        for name, fn in originals.items():
            setattr(runner, name, fn)

    runs = [PointRun(p.key) for p in points]
    if error is not None or len(captured) != len(points) \
            or len(matmul_points) != len(points):
        for run in runs:
            run.error = error or (
                f"sweep returned {len(matmul_points)} points and ran "
                f"{len(captured)} simulations for {len(points)} specs")
        return runs, dataclasses.asdict(cache.stats)
    for run, point, res, mp in zip(runs, points, captured, matmul_points):
        if mp.elapsed != res.elapsed or mp.gflops != res.gflops:
            run.error = "sweep point disagrees with its simulation"
            continue
        _record(run, point, res)
    return runs, dataclasses.asdict(cache.stats)


# -- what is checked and what is counted -------------------------------------

_BUCKETS = ("compute", "comm_wait", "copy", "mpi_overhead", "sync_wait",
            "other")


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def outcome(res) -> dict:
    """The simulated outcome of one point, exact to the bit: virtual
    elapsed, GFLOP/s, per-rank RankStats, per-rank time buckets, simulated
    protocol counters and the bytes each link carried.  Host-implementation
    counts (engine steps, reallocations) stay out."""
    run = res.run
    machine = run.machine
    out = {
        "elapsed": res.elapsed.hex(),
        "gflops": res.gflops.hex(),
        "buckets": {str(rank): [getattr(b, f).hex() for f in _BUCKETS]
                    for rank, b in sorted(run.tracer.all_buckets().items())},
        "counters": {k: v for k, v in sorted(run.tracer.counters.items())
                     if not k.startswith("engine:")},
        "links": [link.bytes_carried.hex() for node in machine.nodes
                  for link in (node.nic_out, node.nic_in, node.mem)],
    }
    stats = getattr(res, "stats", None)
    if stats is not None:
        out["stats"] = [None if s is None else _hexed(dataclasses.asdict(s))
                        for s in stats]
    return out


def digest(out: dict) -> str:
    blob = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def counts(point: Point, res) -> dict:
    """Per-point counts for the per-layer metrics.  ``engine.*`` and
    ``net.*`` are host-implementation counts; the rest are simulated."""
    machine = res.run.machine
    engine, net, tracer = machine.engine, machine.net, res.run.tracer
    stats = [s for s in (getattr(res, "stats", None) or []) if s is not None]
    health = tracer.health()
    c = {
        "engine.steps": engine.steps,
        "engine.dispatch_batches": engine.dispatch_batches,
        "engine.compactions": engine.compactions,
        "net.reallocations": net.reallocations,
        "net.realloc_flow_touches": net.realloc_flow_touches,
        "net.ff_jumps": net.ff_jumps,
        "net.flows_aggregated": net.flows_aggregated,
        "net.flows": net.completed_flows + net.aborted_flows,
        "comm.remote_gets": tracer.counters.get("armci_get", 0),
        "comm.messages": tracer.counters.get("mpi_send", 0),
        "comm.bytes_fetched": sum(s.bytes_fetched for s in stats),
        "comm.retries": sum(s.retries for s in stats),
        "virt.comm_wait_s": tracer.total("comm_wait"),
        # omega's parts, over the points that report transfer time
        "_omega_blocked_s": tracer.total("comm_wait") if stats else 0.0,
        "_omega_comm_s": sum(s.comm_time for s in stats),
        "core.tasks": sum(s.tasks for s in stats),
        "core.recovered_tasks": sum(s.recovered_tasks for s in stats),
        "numpy.flops": 0,
        "numpy.bytes_copied": 0,
    }
    for name in ("get_retry", "corruption_detected", "corruption_repaired",
                 "suspected", "stale_epoch_rejected"):
        c[f"fault.{name}"] = health.get(name, 0)
    if point.payload == "real":
        m = n = k = point.n
        # Block products plus the numpy reference product; gets' payload
        # copies plus loading A and B and assembling C.
        c["numpy.flops"] = sum(s.flops for s in stats) + 2 * m * n * k
        c["numpy.bytes_copied"] = (sum(s.bytes_fetched for s in stats)
                                   + 8 * (m * k + k * n + m * n))
    return c


def _record(run: PointRun, point: Point, res) -> None:
    out = outcome(res)
    run.elapsed, run.gflops = out["elapsed"], out["gflops"]
    run.digest = digest(out)
    run.counts = counts(point, res)


def derived(totals: dict, wall_s: float) -> dict:
    """Ratios over a pass's summed counts."""
    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "net.touches_per_realloc": ratio(totals["net.realloc_flow_touches"],
                                         totals["net.reallocations"]),
        "engine.host_us_per_step": ratio(wall_s * 1e6,
                                         totals["engine.steps"]),
        "virt.omega": min(1.0, ratio(totals["_omega_blocked_s"],
                                     totals["_omega_comm_s"])),
        "fault.repaired_per_detected": ratio(
            totals["fault.corruption_repaired"],
            totals["fault.corruption_detected"]),
    }

