"""Common communication-layer plumbing: requests, rank contexts, runners.

Algorithms in this repository are written as *per-rank generator functions*
taking a :class:`RankContext` — the simulated analogue of an MPI/ARMCI
process.  The context exposes:

- ``ctx.rank``, ``ctx.nranks``, ``ctx.machine`` — identity and topology;
- ``ctx.armci`` — one-sided RMA (:mod:`repro.comm.armci`);
- ``ctx.mpi`` — two-sided messaging and collectives (:mod:`repro.comm.mpi`);
- ``ctx.shmem`` — direct load/store access inside a shared-memory domain
  (:mod:`repro.comm.shmem`);
- ``ctx.dgemm(...)`` — the serial kernel: occupies the rank's CPU for the
  machine-model time and performs the real numpy block product.

:func:`run_parallel` spawns one process per rank, runs the engine to
completion and returns elapsed virtual time plus per-rank results — the
single entry point every algorithm, test and benchmark uses.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

import numpy as np

from ..machines.spec import MachineSpec
from ..sim.cluster import Machine
from ..sim.engine import Engine, Event
from ..sim.trace import Tracer

__all__ = ["Request", "CommError", "GetFailedError", "WaitTimeout",
           "NodeCrashedError", "RankContext", "ParallelRun", "run_parallel",
           "supervised_yield"]


def supervised_yield(machine: Machine, event: Event,
                     what: str = "") -> Generator:
    """Yield on ``event``, watched by the progress watchdog when armed.

    The single wait primitive every comm backend's blocking path routes
    through: without a watchdog it is exactly ``yield event`` (the
    pre-watchdog event sequence); with one, a wait that outlives a grace
    window in which *nothing anywhere* completed raises a diagnosed
    :class:`~repro.sim.engine.StallError` instead of hanging the run.
    """
    watchdog = machine.watchdog
    if watchdog is None:
        value = yield event
        return value
    return (yield from watchdog.supervised_wait(event, what=what))


class CommError(RuntimeError):
    """Protocol misuse or impossible communication request."""


class GetFailedError(CommError):
    """An RMA get was lost in flight (injected NIC/driver failure).

    Raised out of the failed request's wait; the SRUMMA layer catches it
    and re-issues with deterministic exponential backoff (see
    ``docs/resilience.md``).  Carries enough identity to re-issue.
    """

    def __init__(self, caller: int, target: int, nbytes: float):
        self.caller = caller
        self.target = target
        self.nbytes = nbytes
        super().__init__(
            f"get of {nbytes:.0f}B from rank {target} by rank {caller} failed")


class WaitTimeout(CommError):
    """``Request.wait(timeout=...)`` expired before the operation finished."""


class NodeCrashedError(CommError):
    """An operation touched a node that hard-failed (``NodeCrash``).

    Raised out of a pending request's wait when the target node dies, and
    thrown (as an :class:`~repro.sim.engine.Interrupt` cause) into rank
    processes living on the dead node.  Survivors catching it from a get
    re-issue against the dead owner's replica; the recovery protocol then
    re-executes the dead ranks' remaining tasks (``docs/resilience.md``).
    """

    def __init__(self, node: int, detail: str = ""):
        self.node = node
        super().__init__(
            f"node {node} crashed" + (f": {detail}" if detail else ""))


class Request:
    """Handle for a nonblocking operation.

    Yield ``request.done`` (or call ``ctx.wait(request)``, which also
    accounts the blocked time) to complete it.  ``test()`` polls.
    """

    __slots__ = ("done", "kind", "nbytes", "issued_at", "completed_at",
                 "on_complete", "_rendezvous_state", "_cancel_hook",
                 "corrupted", "verified")

    def __init__(self, done: Event, kind: str = "", nbytes: float = 0.0,
                 issued_at: float = 0.0):
        self.done = done
        self.kind = kind
        self.nbytes = nbytes
        self.issued_at = issued_at
        self.completed_at: Optional[float] = None
        self.on_complete: Optional[Callable[[], None]] = None
        self._rendezvous_state = None  # set by the MPI layer for isends
        # Transport teardown installed by the issuing layer: aborts the
        # in-flight flow / protocol process without touching `done`.
        self._cancel_hook: Optional[Callable[[], None]] = None
        # ABFT bookkeeping (see repro.distarray.abft): `corrupted` marks a
        # get whose payload carries an injected bit flip; `verified` marks
        # one whose checksum test already passed, so cached-patch sharers
        # need not re-verify.
        self.corrupted = False
        self.verified = False
        if done.engine is not None:
            done.add_callback(self._stamp)

    def _stamp(self, _ev: Event) -> None:
        self.completed_at = self.done.engine.now

    @property
    def duration(self) -> Optional[float]:
        """Issue-to-completion seconds, or None while pending."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    def test(self) -> bool:
        """True once the operation has completed."""
        return self.done.triggered

    def cancel(self, exc: Optional[BaseException] = None) -> bool:
        """Tear down a still-pending operation; returns True if it was live.

        Runs the issuing layer's transport teardown (aborting the
        in-flight flow or protocol process), then fails ``done`` with
        ``exc`` so any other waiter sharing this request observes the
        cancellation instead of blocking forever.  A no-op (False) once
        the operation has completed.
        """
        if self.done.triggered:
            return False
        hook, self._cancel_hook = self._cancel_hook, None
        if hook is not None:
            hook()
        if not self.done.triggered:
            self.done.fail(exc if exc is not None else CommError(
                f"{self.kind or 'request'} of {self.nbytes:.0f}B cancelled"))
        return True

    def wait(self, timeout: Optional[float] = None) -> Generator:
        """Yieldable wait, optionally bounded in *simulated* time.

        ``yield from request.wait()`` is equivalent to ``yield
        request.done`` (failures raise).  With a ``timeout``, a request
        still pending after that many simulated seconds is *cancelled* —
        its in-flight flow is aborted so no leaked events linger in the
        engine — and :class:`WaitTimeout` is raised; callers deciding to
        re-issue must treat the old request as dead.  Unlike ``ctx.wait``
        this does no trace accounting; it is the low-level primitive
        robust waits build on.
        """
        done = self.done
        if timeout is None or done.triggered:
            value = yield done
            return value
        engine = done.engine
        race = engine.any_of([done, engine.timeout(timeout)])
        yield race
        if not done.triggered:
            timed_out = WaitTimeout(
                f"{self.kind or 'request'} of {self.nbytes:.0f}B still "
                f"pending after {timeout:g}s")
            self.cancel(timed_out)
            raise timed_out
        if not done.ok:
            raise done.value
        return done.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done.triggered else "pending"
        return f"<Request {self.kind} {self.nbytes:.0f}B {state}>"


class RankContext:
    """The world as seen by one simulated process."""

    def __init__(self, rank: int, machine: Machine, armci, mpi, shmem):
        self.rank = rank
        self.machine = machine
        self.engine: Engine = machine.engine
        self.tracer: Tracer = machine.tracer
        self.armci = armci
        self.mpi = mpi
        self.shmem = shmem

    # -- identity / topology ----------------------------------------------
    @property
    def nranks(self) -> int:
        return self.machine.nranks

    @property
    def now(self) -> float:
        return self.engine.now

    def domain_of(self, rank: int) -> int:
        return self.machine.domain_of(rank)

    def same_domain(self, other_rank: int) -> bool:
        return self.machine.same_domain(self.rank, other_rank)

    # -- compute -------------------------------------------------------------
    def _occupy_cpu(self, dt: float) -> Generator:
        """Hold this rank's CPU for ``dt`` seconds of work.

        When the machine has a preemption quantum set (daemon-interference
        runs), the hold is split into timeslices with the CPU re-acquired
        FIFO between them, so queued daemons can steal cycles mid-compute
        as a real OS scheduler would allow.
        """
        cpu = self.machine.cpu(self.rank)
        quantum = self.machine.preemption_quantum
        if quantum is None or dt <= quantum:
            yield cpu.request()
            try:
                yield from self.machine.cpu_busy(self.rank, dt)
            finally:
                cpu.release()
            return
        remaining = dt
        while remaining > 1e-15:
            piece = min(quantum, remaining)
            yield cpu.request()
            try:
                yield from self.machine.cpu_busy(self.rank, piece)
            finally:
                cpu.release()
            remaining -= piece

    def dgemm(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
              transa: bool = False, transb: bool = False,
              remote_uncached: bool = False, beta: float = 1.0,
              alpha: float = 1.0) -> Generator:
        """Serial block product ``c = beta*c + alpha * op(a) @ op(b)``.

        Occupies this rank's CPU for the machine-model kernel time, then
        applies the real numpy arithmetic.  ``remote_uncached`` charges the
        platform's penalty for operands read directly from remote
        non-cacheable (or NUMA-remote) memory — the §3.2 mechanism.
        """
        am = a.shape[1] if transa else a.shape[0]
        ak = a.shape[0] if transa else a.shape[1]
        bk = b.shape[1] if transb else b.shape[0]
        bn = b.shape[0] if transb else b.shape[1]
        if ak != bk:
            raise ValueError(f"inner dims disagree: {ak} vs {bk}")
        if c.shape != (am, bn):
            raise ValueError(f"C shape {c.shape} != ({am}, {bn})")
        yield from self.dgemm_flops(am, bn, ak, remote_uncached)
        op_a = a.T if transa else a
        op_b = b.T if transb else b
        prod = op_a @ op_b
        if alpha != 1.0:
            prod *= alpha
        if beta == 0.0:
            c[...] = prod
        elif beta == 1.0:
            c += prod
        else:
            c *= beta
            c += prod

    def dgemm_flops(self, m: int, n: int, k: int,
                    remote_uncached: bool = False) -> Generator:
        """Time-only serial kernel: the cost model of :meth:`dgemm` without
        the numpy arithmetic (synthetic-payload benchmark mode)."""
        if min(m, n, k) < 0:
            raise ValueError("negative dgemm dimensions")
        dt = self.machine.dgemm_time(m, n, k, remote_uncached=remote_uncached)
        t0 = self.now
        yield from self._occupy_cpu(dt)
        self.tracer.account(self.rank, "compute", dt)
        # Queueing delay beyond the kernel itself (e.g. the CPU was busy
        # servicing a host-side copy for a non-zero-copy get) is idle time.
        queued = (self.now - t0) - dt
        if queued > 1e-15:
            self.tracer.account(self.rank, "sync_wait", queued)

    def compute(self, seconds: float) -> Generator:
        """Occupy this rank's CPU for a fixed time (microbenchmarks)."""
        if seconds < 0:
            raise ValueError("negative compute time")
        yield from self._occupy_cpu(seconds)
        self.tracer.account(self.rank, "compute", seconds)

    # -- waiting -----------------------------------------------------------
    def wait(self, request: Request) -> Generator:
        """Block until a nonblocking operation completes; accounts the wait.

        With the engine progress watchdog armed (``watchdog_grace`` in the
        fault plan), the block is *supervised*: if nothing anywhere in the
        simulation completes for a full grace window while this request
        stays pending, the wait raises a diagnosed
        :class:`~repro.sim.engine.StallError` instead of hanging.
        """
        t0 = self.now
        if not request.done.triggered:
            watchdog = self.machine.watchdog
            if watchdog is not None:
                yield from watchdog.supervised_wait(
                    request.done,
                    what=f"rank {self.rank} waiting on "
                         f"{request.kind or 'request'} of "
                         f"{request.nbytes:.0f}B")
            else:
                yield request.done
        self.tracer.account(self.rank, "comm_wait", self.now - t0)
        if request.on_complete is not None:
            cb, request.on_complete = request.on_complete, None
            cb()
        return request.done.value

    def wait_all(self, requests: Sequence[Request]) -> Generator:
        """Block until every request in the sequence completes."""
        for req in requests:
            yield from self.wait(req)


class ParallelRun:
    """Result of :func:`run_parallel`."""

    def __init__(self, machine: Machine, elapsed: float, results: list,
                 armci_runtime=None):
        self.machine = machine
        self.elapsed = elapsed
        self.results = results
        self.tracer = machine.tracer
        self.armci = armci_runtime  # segment registry, for post-run assembly

    def gflops(self, flops: float) -> float:
        """Aggregate GFLOP/s given the total useful flop count."""
        if self.elapsed <= 0:
            raise ValueError("run has zero elapsed time")
        return flops / self.elapsed / 1e9

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ParallelRun {self.machine.spec.name} elapsed={self.elapsed:.6g}s>"


def run_parallel(spec_or_machine, nranks: Optional[int],
                 rank_fn: Callable[[RankContext], Generator],
                 tracer: Optional[Tracer] = None,
                 interference=None, faults=None) -> ParallelRun:
    """Run ``rank_fn(ctx)`` as one simulated process per rank.

    ``spec_or_machine`` may be a :class:`~repro.machines.spec.MachineSpec`
    (a fresh :class:`Machine` is built) or an existing :class:`Machine`
    (``nranks`` must then be None or match); engine modes are set on the
    machine (``Machine(spec, nranks, fast_forward=False)``).  Returns a
    :class:`ParallelRun` with the virtual elapsed time and each rank's
    generator return value.

    ``interference`` (an
    :class:`~repro.sim.interference.InterferencePattern`) injects per-CPU
    system-daemon bursts for the paper's §2 asynchrony experiments; the
    daemons are shut down automatically when the last rank finishes.

    ``faults`` (a :class:`~repro.sim.faults.FaultPlan`) installs the
    deterministic fault injector: brownout/outage window processes run on
    the engine clock and seeded get failures activate in the comm layer.
    ``None`` (the default) leaves ``machine.faults`` unset, which is the
    exact pre-fault-injection code path.
    """
    # Imported here: armci/mpi/shmem import base for Request/RankContext.
    from .armci import Armci, ArmciRuntime
    from .mpi import Mpi, MpiRuntime
    from .shmem import Shmem, ShmemRuntime

    if isinstance(spec_or_machine, Machine):
        machine = spec_or_machine
        if nranks is not None and nranks != machine.nranks:
            raise ValueError("nranks disagrees with the provided machine")
    elif isinstance(spec_or_machine, MachineSpec):
        if nranks is None:
            raise ValueError("nranks required when passing a MachineSpec")
        machine = Machine(spec_or_machine, nranks, tracer=tracer)
    else:
        raise TypeError(f"expected MachineSpec or Machine, got {type(spec_or_machine)}")

    armci_rt = ArmciRuntime(machine)
    mpi_rt = MpiRuntime(machine)
    shmem_rt = ShmemRuntime(machine)
    shmem_rt.bind(armci_rt)

    has_crashes = faults is not None and bool(getattr(faults, "crashes", ()))

    def crash_tolerant(gen):
        # A rank living on a crashed node is interrupted with a
        # NodeCrashedError cause; it unwinds (finally blocks release its
        # CPU) and "returns" None so the supervisor and the post-run
        # checks see a cleanly-completed process, not a crash to re-raise.
        from ..sim.engine import Interrupt

        def wrapper():
            try:
                result = yield from gen
            except Interrupt as exc:
                if isinstance(exc.cause, NodeCrashedError):
                    return None
                raise
            return result

        return wrapper()

    procs = []
    for rank in range(machine.nranks):
        ctx = RankContext(
            rank, machine,
            armci=Armci(armci_rt, rank),
            mpi=Mpi(mpi_rt, rank),
            shmem=Shmem(shmem_rt, rank),
        )
        body = rank_fn(ctx)
        if has_crashes:
            body = crash_tolerant(body)
        procs.append(machine.engine.spawn(body, name=f"rank{rank}"))

    if has_crashes:
        cpn = machine.spec.cpus_per_node

        def kill_ranks(node: int) -> None:
            # Runs after the armci runtime's in-flight sweep (listener
            # registration order): dead callers' requests are already torn
            # down, so interrupting the rank cannot race a late completion.
            for rank in range(node * cpn, min((node + 1) * cpn, machine.nranks)):
                p = procs[rank]
                if not p.triggered:
                    p.interrupt(NodeCrashedError(node, f"rank {rank} died"))

        machine.on_node_crash(kill_ranks)

    daemons = []
    if interference is not None:
        from ..sim.interference import spawn_daemons

        daemons.extend(spawn_daemons(machine, interference))
    if faults is not None:
        from ..sim.faults import install_faults

        daemons.extend(install_faults(machine, faults).start())
    if machine.watchdog is not None:
        # Arm the stall diagnosis with a per-rank blocked-state dump,
        # mirroring the post-run deadlock report but captured live.
        def describe_blocked() -> list:
            stuck = [(rank, p) for rank, p in enumerate(procs)
                     if not p.triggered]
            details = []
            for rank, p in stuck[:8]:
                waiting = p._waiting_on
                what = waiting.name if waiting is not None else "<unknown>"
                details.append(f"rank {rank} blocked on {what!r}")
            if len(stuck) > 8:
                details.append(f"(+{len(stuck) - 8} more)")
            return details

        machine.watchdog.describe = describe_blocked
    if daemons:
        def supervisor():
            try:
                yield machine.engine.all_of(list(procs))
            except BaseException:
                pass  # a crashed rank still shuts the daemons down
            finally:
                for d in daemons:
                    d.interrupt()

        machine.engine.spawn(supervisor(), name="daemon-supervisor")

    start = machine.engine.now
    machine.engine.run()
    stuck = [(rank, p) for rank, p in enumerate(procs) if not p.triggered]
    if stuck:
        details = []
        for rank, p in stuck[:8]:
            waiting = p._waiting_on
            what = waiting.name if waiting is not None else "<unknown>"
            details.append(f"rank {rank} blocked on {what!r}")
        more = f" (+{len(stuck) - 8} more)" if len(stuck) > 8 else ""
        raise CommError(
            "deadlock: the simulation drained with "
            f"{len(stuck)}/{machine.nranks} ranks still blocked: "
            + "; ".join(details) + more)
    for rank, p in enumerate(procs):
        if not p.ok:
            raise p.value
    elapsed = machine.engine.now - start
    # Engine-mode hit counters, surfaced next to the fault:* health
    # namespace so callers (and the wall-clock bench JSON) can see when
    # the fast paths stop firing.
    machine.tracer.counters["engine:ff_jumps"] = machine.net.ff_jumps
    machine.tracer.counters["engine:flows_aggregated"] = (
        machine.net.flows_aggregated)
    machine.tracer.counters["engine:dispatch_batches"] = (
        machine.engine.dispatch_batches)
    # Detection/watchdog counters surface uniformly whenever the features
    # are on — a zero says "armed and nothing happened", absence says
    # "feature off" — so sweep summaries can report them without guessing.
    if machine.membership is not None:
        for key in ("fault:suspected", "fault:false_suspicions",
                    "fault:confirmed_dead", "fault:stale_epoch_rejected"):
            machine.tracer.counters.setdefault(key, 0)
    if machine.watchdog is not None:
        machine.tracer.counters.setdefault("engine:stalls_diagnosed", 0)
    return ParallelRun(machine, elapsed, [p.value for p in procs],
                       armci_runtime=armci_rt)
