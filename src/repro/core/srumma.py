"""The SRUMMA algorithm (paper §2–§3).

One generator, :func:`srumma_rank`, implements all three flavours:

``cluster`` (§3.1)
    Operands inside the caller's shared-memory domain are accessed directly
    through load/store (no copy); operands on other nodes arrive via
    *nonblocking ARMCI gets*, double-buffered so the transfer of task
    ``t+1`` overlaps the dgemm of task ``t`` (paper Fig. 3).  With
    ``nonblocking=False`` every get is blocking — the Fig. 9 ablation.

``direct`` (§3.2, SGI Altix)
    Every operand patch is passed to dgemm as a direct reference into the
    owner's memory.  No copies at all; off-node operands charge the
    platform's remote-access kernel factor (mild on a cacheable ccNUMA).

``copy`` (§3.2, Cray X1)
    Off-node operand patches are explicitly copied into local buffers by
    the calling CPU before dgemm (remote memory is not cacheable, so the
    kernel would crawl on direct references); node-local patches are still
    accessed directly.

Payload modes: with :class:`~repro.distarray.global_array.GlobalArray`
handles the run moves real numpy data and the result is verifiable; with
bare :class:`~repro.distarray.distribution.Block2D` distributions the run is
*synthetic* — identical simulated timing, no data (large-N sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Union

import numpy as np

from ..comm.armci import _section_segments
from ..comm.base import (GetFailedError, NodeCrashedError, RankContext,
                         Request, WaitTimeout, supervised_yield)
from ..distarray.abft import checksums_match, verify_cost
from ..distarray.distribution import Block2D
from ..distarray.global_array import GlobalArray
from ..machines.spec import MachineSpec
from ..sim.cluster import Machine
from .recovery import board_for, build_assignment
from .schedule import (ScheduleOptions, defer_suspected, order_tasks,
                       task_is_domain_local)
from .tasks import BlockTask, build_tasks

__all__ = ["SrummaOptions", "srumma_rank", "resolve_flavor", "RankStats"]

MatrixArg = Union[GlobalArray, Block2D]


@dataclass(frozen=True)
class SrummaOptions:
    """Algorithm switches (defaults = the paper's best configuration)."""

    flavor: str = "auto"
    """'cluster', 'direct', 'copy', or 'auto' (pick by machine model:
    clusters -> cluster; shared-memory machines -> direct when remote
    memory is cacheable, else copy)."""

    nonblocking: bool = True
    """Double-buffered nonblocking pipeline (True) vs blocking gets (False).
    Only meaningful for the cluster flavour."""

    dynamic: bool = False
    """Dynamic runtime scheduling (paper §2: 'the specific sequence in which
    the block matrix multiplications are executed is determined dynamically
    at run time').  Remote tasks still prefetch double-buffered, but
    domain-local tasks are held back as *filler*: whenever remote data is
    not yet ready, a local task computes instead of blocking.  Implies the
    nonblocking pipeline; cluster flavour only."""

    pipeline_depth: int = 2
    """Outstanding remote prefetches (2 = the paper's two buffers B1/B2)."""

    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    """Task-ordering switches (diagonal shift, local-first)."""

    def __post_init__(self):
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")

    def describe(self) -> str:
        nb = "dyn" if self.dynamic else ("nb" if self.nonblocking else "blk")
        return f"{self.flavor}/{nb}/{self.schedule.describe()}"


def resolve_flavor(spec: MachineSpec, flavor: str = "auto") -> str:
    """Resolve 'auto' to the right flavour for a machine (paper §3.2)."""
    if flavor != "auto":
        if flavor not in ("cluster", "direct", "copy"):
            raise ValueError(f"unknown SRUMMA flavor {flavor!r}")
        return flavor
    if spec.shared_memory_scope == "machine":
        return "direct" if spec.memory.remote_cacheable else "copy"
    return "cluster"


@dataclass
class RankStats:
    """Per-rank execution statistics returned by :func:`srumma_rank`."""

    tasks: int = 0
    local_tasks: int = 0
    remote_gets: int = 0
    bytes_fetched: float = 0.0
    copies: int = 0
    flops: int = 0
    flavor: str = ""
    comm_time: float = 0.0
    """Summed issue-to-completion seconds of this rank's transfers (the
    denominator of the paper's overlap degree omega)."""
    peak_buffer_bytes: float = 0.0
    """High-water mark of communication buffer memory on this rank (the
    paper's memory-efficiency claim: SRUMMA needs two block buffers, not
    full extra copies of A and B)."""
    retries: int = 0
    """Gets re-issued after an injected failure or wait timeout (includes
    the final reliable-protocol fallback issues).  Zero on healthy runs."""
    faults_absorbed: int = 0
    """Gets this rank recovered end-to-end: failed at least once, then
    completed via retry or the reliable fallback.  Zero on healthy runs."""
    corruptions_detected: int = 0
    """ABFT checksum mismatches caught on arrived panels (injected wire
    corruption).  Zero on healthy runs."""
    corruptions_repaired: int = 0
    """Corrupted panels whose re-fetch eventually delivered verified data."""
    recovered_tasks: int = 0
    """Tasks of crashed ranks this rank re-executed during recovery."""
    checkpoints: int = 0
    """C-block checkpoints this rank shipped to its buddy (crash plans
    only; the free load-time checkpoint 0 is not counted)."""
    suspected: int = 0
    """Times the failure detector suspected this rank's node (imperfect
    detection only).  Zero without a detector."""
    false_suspicions: int = 0
    """Suspicions of this rank's node that a late heartbeat cleared."""
    stale_epoch_rejected: int = 0
    """C write-backs for this rank's block rejected by the membership
    epoch fence — duplicate work from a false confirmation, absorbed."""
    stalls_diagnosed: int = 0
    """Silent livelocks the progress watchdog converted into diagnosed
    :class:`~repro.sim.engine.StallError` (normally the run then aborts,
    so a returned RankStats carries zero here)."""


class _Operand:
    """How one task operand is obtained: view / get / copy.

    ``elems`` and ``segments`` are precomputed at plan time so the
    per-task acquisition loop does no shape arithmetic or distribution
    lookups (``segments`` is the strided-descriptor count a synthetic
    byte-level get charges for; ``None`` for view/copy operands).
    """

    __slots__ = ("mode", "owner", "index", "shape", "penalty", "elems",
                 "segments")

    def __init__(self, mode: str, owner: int, index, shape, penalty: bool,
                 segments=None):
        self.mode = mode      # "view" | "get" | "copy"
        self.owner = owner
        self.index = index
        self.shape = shape
        self.penalty = penalty
        self.elems = shape[0] * shape[1]
        self.segments = segments


def _operand_mode(machine: Machine, rank: int, flavor: str,
                  owner: int) -> tuple[str, bool]:
    """(access mode, kernel penalty) for one operand owner (paper §3 rules).

    Depends on the caller only through its node/domain, so results are
    memoized per owner when a rank plans its task list.
    """
    if flavor == "cluster":
        if machine.same_domain(rank, owner):
            return "view", False
        return "get", False
    off_node = owner != rank and not machine.same_node(rank, owner)
    if flavor == "direct":
        return "view", off_node
    # copy flavour: only off-node patches need the explicit copy.
    return ("copy" if off_node else "view"), False


# Run-level plan cache: ordered tasks + operand plans for one rank's C
# block.  All inputs are hashable value objects; planning depends on the
# caller only through its node index (same-domain/off-node tests), so
# identical repeated multiplications — benchmark reps, iterative solvers
# calling dgemm in a loop — skip task construction, ordering, and operand
# classification entirely.  FIFO-bounded; entries are immutable tuples
# shared by all readers.
_PLAN_CACHE: dict = {}
_PLAN_CACHE_MAX = 1024


def _plan_operands(tasks, dist_a, dist_b, mode_of):
    """(operand plans, needs-get flags) for ``tasks``.

    ``mode_of(owner)`` is the caller's (access mode, kernel penalty) rule
    for one operand owner; it is consulted once per owner.
    """
    memo: dict[int, tuple[str, bool]] = {}

    def plan(owner, index, shape, dist):
        decision = memo.get(owner)
        if decision is None:
            decision = memo[owner] = mode_of(owner)
        mode, penalty = decision
        segments = None
        if mode == "get":
            owner_shape = dist.block_shape(*dist.coords_of(owner))
            segments = _section_segments(owner_shape, index)
        return _Operand(mode, owner, index, shape, penalty,
                        segments=segments)

    plans = tuple(
        (plan(t.a_owner, t.a_index, t.a_shape, dist_a),
         plan(t.b_owner, t.b_index, t.b_shape, dist_b))
        for t in tasks)
    needs_get = tuple(
        any(op.mode == "get" for op in pair) for pair in plans)
    return plans, needs_get


def _build_plan(machine: Machine, rank: int, coords, dist_a, dist_b, dist_c,
                transa: bool, transb: bool, flavor: str,
                schedule: ScheduleOptions):
    """Memoized (tasks, plans, local_tasks, needs_get) for one rank."""
    spec = machine.spec
    key = (dist_a, dist_b, dist_c, transa, transb, coords, schedule, flavor,
           spec.shared_memory_scope, spec.cpus_per_node,
           rank // spec.cpus_per_node)
    try:
        hit = _PLAN_CACHE.get(key)
    except TypeError:  # unhashable distribution flavour: plan uncached
        hit = None
        key = None
    if hit is not None:
        return hit

    tasks = build_tasks(dist_a, dist_b, dist_c, transa, transb, coords=coords)
    if tasks:
        tasks = order_tasks(tasks, machine, rank, coords, schedule)
    tasks = tuple(tasks)
    local_tasks = sum(
        1 for t in tasks if task_is_domain_local(machine, rank, t))

    plans, needs_get = _plan_operands(
        tasks, dist_a, dist_b,
        lambda owner: _operand_mode(machine, rank, flavor, owner))

    result = (tasks, plans, local_tasks, needs_get)
    if key is not None:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
        _PLAN_CACHE[key] = result
    return result


def srumma_rank(ctx: RankContext, a: MatrixArg, b: MatrixArg, c: MatrixArg,
                transa: bool = False, transb: bool = False,
                options: Optional[SrummaOptions] = None,
                alpha: float = 1.0, beta: float = 1.0) -> Generator:
    """Per-rank SRUMMA: ``C_block = beta*C_block + alpha * op(A) op(B)``.

    ``a``/``b``/``c`` are :class:`GlobalArray` handles (real payload) or bare
    :class:`Block2D` distributions (synthetic timing-only run).  Returns a
    :class:`RankStats`.
    """
    if options is None:
        options = SrummaOptions()
    flavor = resolve_flavor(ctx.machine.spec, options.flavor)
    real = isinstance(c, GlobalArray)
    dist_a = a.dist if isinstance(a, GlobalArray) else a
    dist_b = b.dist if isinstance(b, GlobalArray) else b
    dist_c = c.dist if isinstance(c, GlobalArray) else c
    itemsize = c.dtype.itemsize if real else np.dtype(np.float64).itemsize

    stats = RankStats(flavor=flavor)
    if dist_c.nranks > ctx.nranks:
        raise ValueError("C distribution needs more ranks than the machine has")
    coords = (dist_c.coords_of(ctx.rank) if ctx.rank < dist_c.nranks else None)
    tasks, plans, local_tasks, needs_get = _build_plan(
        ctx.machine, ctx.rank, coords, dist_a, dist_b, dist_c,
        transa, transb, flavor, options.schedule)
    if not tasks:
        return stats
    stats.tasks = len(tasks)
    stats.local_tasks = local_tasks

    membership = ctx.machine.membership
    detection_on = membership is not None
    # With imperfect detection this rank may be falsely confirmed dead and
    # its block claimed by recovery while it is still computing.  The block
    # is therefore computed in a *private* copy and published at the end
    # through the membership epoch fence (duplicate-safe commit); without a
    # detector the segment is written in place, exactly as before.
    if real:
        c_local = c.local().copy() if detection_on else c.local()
    else:
        c_local = None
    start_gen = membership.generation(ctx.rank) if detection_on else 0
    r_lo, _ = dist_c.row_range(coords[0])
    c_lo, _ = dist_c.col_range(coords[1])

    if beta == 0.0:
        # Fresh result: start from zeros (no kernel cost — dgemm's first
        # store overwrites anyway).
        if real:
            c_local[...] = 0.0
    elif beta != 1.0:
        # Owner-computes: scale the local C block once up front (one flop
        # per element on this rank's CPU).
        my_shape = dist_c.block_shape(*coords)
        scale_flops = my_shape[0] * my_shape[1]
        if scale_flops:
            yield from ctx.compute(
                scale_flops / (ctx.machine.spec.cpu.flops
                               * ctx.machine.spec.cpu.peak_efficiency))
        if real:
            c_local *= beta

    # ----- acquisition helpers ------------------------------------------------
    # Fetched-patch reuse (paper §3.1 step 2: "the currently held A_ik
    # matrix block is used in consecutive matrix products before its copy
    # is discarded"): a small bounded cache keyed by (operand, owner,
    # section) so that segmented task lists — transpose cases on
    # non-square grids fetch the same patch for several adjacent tasks —
    # pay each transfer once.
    # Capacity: the two pipeline buffers per operand (paper: B1/B2), or
    # more when a deeper dynamic pipeline is requested.  Reuse only needs
    # to catch *adjacent* tasks sharing a patch, so a small cache suffices
    # and the memory bound stays a constant number of block buffers.
    _CACHE_SLOTS = max(4, 2 * options.pipeline_depth)
    issued_requests: list[Request] = []
    fetch_cache: dict = {}
    cache_sizes: dict = {}
    live_buffer_bytes = 0.0
    # Fault-injection bookkeeping (inert when no plan is installed):
    # request -> what to re-issue if it fails, and old request -> its
    # replacement so tasks sharing a cached patch follow the retry chain.
    injector = ctx.machine.faults
    abft_on = injector is not None and injector.plan.corruption_rate > 0.0
    crash_on = injector is not None and injector.has_crashes
    # With a detector, false suspicions alone can trigger recovery: the
    # checkpoint/board machinery runs even when no crash is planned.
    recovery_on = crash_on or detection_on
    reissue_info: dict[Request, tuple] = {}
    superseded: dict[Request, Request] = {}

    def _cache_lookup(key):
        hit = fetch_cache.pop(key, None)
        if hit is not None:
            fetch_cache[key] = hit  # refresh LRU position
        return hit

    def _cache_store(key, value, nbytes: float):
        nonlocal live_buffer_bytes
        # Evict before inserting: the steady-state bound is _CACHE_SLOTS
        # buffers (an evicted entry's buffer lives on only while a pipelined
        # task still references it).
        while len(fetch_cache) >= _CACHE_SLOTS:
            old = next(iter(fetch_cache))
            fetch_cache.pop(old)
            live_buffer_bytes -= cache_sizes.pop(old)
        fetch_cache[key] = value
        cache_sizes[key] = nbytes
        live_buffer_bytes += nbytes
        stats.peak_buffer_bytes = max(stats.peak_buffer_bytes,
                                      live_buffer_bytes)

    def fetch(op, ga, buf, reliable: bool = False) -> Request:
        """Issue the get of one operand patch into ``buf`` (the first
        issue and every re-issue of the robust wait)."""
        if real:
            return ga.nb_get_owner_patch(op.owner, op.index, buf,
                                         reliable=reliable)
        # op.segments matches the strided-descriptor cost the data-carrying
        # get pays for a sub-block section (precomputed at plan time).
        return ctx.armci.nb_get_bytes(op.owner, op.elems * itemsize,
                                      segments=op.segments, reliable=reliable)

    def _make_issue(plan_seq):
        """Build an issue_gets closure over one operand-plan sequence (the
        healthy task list, or a recovered dead rank's task list)."""

        def issue_gets(i: int):
            """Issue nonblocking gets for task i; returns (arrays, requests).

            Cache hits return the previously fetched buffer and (if the
            transfer is still in flight) its original request to wait on.
            """
            arrays: list[Optional[np.ndarray]] = [None, None]
            reqs: list[Request] = []
            for slot, (op, ga) in enumerate(zip(plan_seq[i], (a, b))):
                if op.mode == "get":
                    key = (slot, op.owner,
                           op.index[0].start, op.index[0].stop,
                           op.index[1].start, op.index[1].stop)
                    hit = _cache_lookup(key)
                    if hit is not None:
                        buf, req = hit
                        arrays[slot] = buf
                        if not req.done.triggered:
                            reqs.append(req)
                        elif injector is not None and not req.done.ok:
                            # The cached transfer failed in flight; hand the
                            # dead request to the robust wait so it re-issues.
                            reqs.append(req)
                        elif abft_on and not req.verified:
                            # Arrived but not yet checksum-verified (its
                            # requester has not waited on it); the robust
                            # wait must verify before dgemm reads it.
                            reqs.append(req)
                        continue
                    nbytes = op.elems * itemsize
                    stats.remote_gets += 1
                    stats.bytes_fetched += nbytes
                    buf = np.empty(op.shape, dtype=c.dtype) if real else None
                    arrays[slot] = buf
                    req = fetch(op, ga, buf)
                    reqs.append(req)
                    issued_requests.append(req)
                    if injector is not None:
                        reissue_info[req] = (key, op, ga, buf)
                    _cache_store(key, (buf, req), nbytes)
                elif op.mode == "view" and real:
                    arrays[slot] = ga.view_owner_patch(op.owner, op.index)
            return arrays, reqs

        return issue_gets

    issue_gets = _make_issue(plans)

    def acquire_copies(i: int):
        """Blocking explicit copies for the X1 flavour (generator)."""
        arrays: list[Optional[np.ndarray]] = [None, None]
        for slot, (op, ga) in enumerate(zip(plans[i], (a, b))):
            if op.mode == "copy":
                key = (slot, op.owner,
                       op.index[0].start, op.index[0].stop,
                       op.index[1].start, op.index[1].stop)
                hit = _cache_lookup(key)
                if hit is not None:
                    arrays[slot] = hit[0]
                    continue
                nbytes = op.elems * itemsize
                stats.copies += 1
                stats.bytes_fetched += nbytes
                t_copy0 = ctx.now
                if real:
                    buf = np.empty(op.shape, dtype=c.dtype)
                    arrays[slot] = buf
                    yield from ga.copy_owner_patch(op.owner, op.index, buf)
                else:
                    buf = None
                    yield from ctx.shmem.copy_bytes(op.owner, nbytes)
                stats.comm_time += ctx.now - t_copy0
                _cache_store(key, (buf, None), nbytes)
            elif op.mode == "view" and real:
                arrays[slot] = ga.view_owner_patch(op.owner, op.index)
        return arrays

    # ----- waiting (healthy: exactly ctx.wait_all; degraded: robust) ---------
    if injector is None:
        wait_requests = ctx.wait_all
    else:
        fault_plan = injector.plan

        cpu_flops = ctx.machine.spec.cpu.flops
        my_node = ctx.machine.node_of(ctx.rank)

        def wait_requests(reqs):
            """Wait with bounded retry: failed gets are re-issued with
            deterministic exponential backoff, then (after ``max_retries``)
            via the reliable blocking-copy protocol, which cannot fail.

            Failures include injected get losses, wait timeouts, node-crash
            sweeps of in-flight transfers, and — when a corruption plan is
            active — ABFT checksum mismatches on arrived panels, which
            re-fetch through the same retry ladder."""
            for req in reqs:
                attempt = 0
                recovered = False
                corrupt_pending = 0
                reliable_issued = False
                while True:
                    t0 = ctx.now
                    needs_reissue = False
                    try:
                        # Since a timed-out wait now *cancels* the transfer,
                        # bounding the reliable fallback would break its
                        # cannot-fail guarantee (and livelock when the
                        # timeout is shorter than a panel transfer): the
                        # fallback waits unbounded in simulated time, but
                        # *supervised* — a fallback aimed at a target that
                        # can never answer surfaces as a diagnosed
                        # StallError instead of hanging the run.  Node
                        # death still fails it promptly via the crash sweep.
                        if reliable_issued:
                            yield from supervised_yield(
                                ctx.machine, req.done,
                                what=(f"rank {ctx.rank} in reliable-fallback "
                                      f"wait on {req.kind or 'get'} of "
                                      f"{req.nbytes:.0f}B"))
                        else:
                            yield from req.wait(
                                timeout=fault_plan.get_timeout)
                    except (GetFailedError, WaitTimeout, NodeCrashedError):
                        ctx.tracer.account(ctx.rank, "comm_wait",
                                           ctx.now - t0)
                        if req not in reissue_info:
                            repl = superseded.get(req)
                            if repl is None:
                                raise  # not one of ours: surface it
                            req = repl  # another task already re-issued it
                            continue
                        needs_reissue = True
                    else:
                        ctx.tracer.account(ctx.rank, "comm_wait",
                                           ctx.now - t0)
                        if abft_on and not req.verified:
                            if req not in reissue_info:
                                repl = superseded.get(req)
                                if repl is not None:
                                    # Arrived corrupt and its requester
                                    # already re-fetched: follow the chain.
                                    req = repl
                                    continue
                            else:
                                _, op, ga, buf = reissue_info[req]
                                cost = verify_cost(op.elems, cpu_flops)
                                if cost > 0.0:
                                    yield from ctx.compute(cost)
                                if real:
                                    ok = checksums_match(
                                        buf, ga.owner_patch_checksums(
                                            op.owner, op.index))
                                else:
                                    ok = not req.corrupted
                                if ok:
                                    req.verified = True
                                else:
                                    ctx.tracer.bump(
                                        "fault:corruption_detected")
                                    stats.corruptions_detected += 1
                                    corrupt_pending += 1
                                    needs_reissue = True
                    if not needs_reissue:
                        reissue_info.pop(req, None)
                        if req.on_complete is not None:
                            cb, req.on_complete = req.on_complete, None
                            cb()
                        if recovered:
                            stats.faults_absorbed += 1
                        if corrupt_pending:
                            # One bump per absorbed detection: a re-fetch
                            # can itself arrive corrupt (another detection,
                            # another re-fetch), and every one of them is
                            # repaired by the fetch that finally verifies.
                            ctx.tracer.bump("fault:corruption_repaired",
                                            corrupt_pending)
                            stats.corruptions_repaired += corrupt_pending
                        break
                    key, op, ga, buf = reissue_info.pop(req)
                    # Suspicion is not confirmation: while our membership
                    # view merely *suspects* the owner's node, hold at the
                    # current retry rung instead of burning an attempt
                    # toward the fallback — the detector will resolve it
                    # (a heartbeat clears the suspicion, or confirmation
                    # reroutes the re-issue to a replica).
                    suspected_only = (
                        detection_on and not reliable_issued
                        and membership.sees_suspected(
                            my_node, ctx.machine.node_of(op.owner)))
                    if attempt < fault_plan.max_retries or suspected_only:
                        ctx.tracer.bump("fault:get_retry")
                        rel = False
                        delay = fault_plan.backoff(
                            min(attempt, fault_plan.max_retries))
                        if delay > 0:
                            yield ctx.engine.timeout(delay)
                    else:
                        ctx.tracer.bump("fault:get_fallback")
                        rel = True
                        reliable_issued = True
                    if not suspected_only:
                        attempt += 1
                    stats.retries += 1
                    recovered = True
                    new_req = fetch(op, ga, buf, rel)
                    issued_requests.append(new_req)
                    reissue_info[new_req] = (key, op, ga, buf)
                    superseded[req] = new_req
                    if key in fetch_cache:
                        fetch_cache[key] = (buf, new_req)
                    req = new_req

    def kernel(task, pair, arrays, block, origin):
        """The serial kernel for one task (generator): accumulates into
        ``block``, the C block whose first element is C[origin], using the
        operand pair's kernel penalty."""
        penalty = pair[0].penalty or pair[1].penalty
        stats.flops += task.flops
        if real:
            r0, c0 = origin
            c_sub = block[task.m_range[0] - r0:task.m_range[1] - r0,
                          task.n_range[0] - c0:task.n_range[1] - c0]
            yield from ctx.dgemm(arrays[0], arrays[1], c_sub,
                                 transa=transa, transb=transb,
                                 remote_uncached=penalty, alpha=alpha)
        else:
            yield from ctx.dgemm_flops(task.m_range[1] - task.m_range[0],
                                       task.n_range[1] - task.n_range[0],
                                       task.k_range[1] - task.k_range[0],
                                       remote_uncached=penalty)

    def run_dgemm(i: int, arrays):
        """The kernel for this rank's own task i (generator)."""
        return kernel(tasks[i], plans[i], arrays, c_local, (r_lo, c_lo))

    # ----- crash tolerance: checkpointing + recovery --------------------------
    if recovery_on:
        board = board_for(ctx.machine)
        buddy = (ctx.rank + ctx.machine.spec.cpus_per_node) % ctx.nranks
        my_shape = dist_c.block_shape(*coords)
        ckpt_nbytes = float(my_shape[0] * my_shape[1] * itemsize)
        ckpt_interval = injector.plan.checkpoint_interval
        completed = 0
        # Checkpoint 0 is free: the buddy's replica of the freshly
        # beta-scaled block is established while operands load (untimed),
        # like the A/B replication that backs replica_of redirects.
        board.record(ctx.rank, 0, c_local.copy() if real else None)

        _plain_run_dgemm = run_dgemm

        def run_dgemm(i: int, arrays):
            nonlocal completed
            yield from _plain_run_dgemm(i, arrays)
            completed += 1
            if completed % ckpt_interval == 0 and completed < len(tasks):
                # Ship the C block to the buddy, overlapped with the next
                # tasks; it becomes durable only when the put completes.
                snap = c_local.copy() if real else None
                count = completed
                req = ctx.armci.nb_put_bytes(buddy, ckpt_nbytes)
                req.done.add_callback(
                    lambda ev, count=count, snap=snap:
                    board.record(ctx.rank, count, snap) if ev.ok else None)
                issued_requests.append(req)
                stats.checkpoints += 1
                ctx.tracer.bump("fault:checkpoint")

        def recovered_operand_mode(owner: int) -> tuple[str, bool]:
            """The owned-task rule relative to this executor, with two
            crash-time overrides: a dead owner's panel must travel over the
            wire from its replica (never a direct view into dead memory),
            and the X1 flavour's explicit copy degrades to a get for the
            same reason.  Dead is judged by this executor's belief
            (membership view when detection is on, the oracle otherwise),
            so panels of presumed-dead stragglers also route to replicas."""
            if ctx.machine.presumed_dead(ctx.rank, owner):
                return "get", False
            mode, penalty = _operand_mode(ctx.machine, ctx.rank, flavor,
                                          owner)
            return ("get" if mode == "copy" else mode), penalty

        def _recover_one(d: int, task_indices):
            """Re-execute ``task_indices`` of dead rank ``d``'s task list,
            then ship the partial C contribution to its replica."""
            d_coords = dist_c.coords_of(d)
            d_tasks = board.dead_plans[d]
            rec_tasks = [d_tasks[ti] for ti in task_indices]
            # Operands on merely-suspected nodes go last: by the time the
            # pipeline reaches them the detector has usually made up its
            # mind (identity ordering without a detector).
            rec_tasks = defer_suspected(rec_tasks, ctx.machine, ctx.rank)
            rec_plans, rec_needs = _plan_operands(
                rec_tasks, dist_a, dist_b, recovered_operand_mode)
            d_shape = dist_c.block_shape(*d_coords)
            d_origin = (dist_c.row_range(d_coords[0])[0],
                        dist_c.col_range(d_coords[1])[0])
            partial = np.zeros(d_shape, dtype=c.dtype) if real else None
            yield from _run_dynamic(
                ctx, rec_tasks, rec_needs, _make_issue(rec_plans),
                lambda i, arrays: kernel(rec_tasks[i], rec_plans[i], arrays,
                                         partial, d_origin),
                options.pipeline_depth, wait_requests)
            stats.recovered_tasks += len(rec_tasks)
            # One partial-C put to the dead rank's replica; the
            # contribution lands when the put completes.  A second crash
            # taking out the replica mid-put just redirects and retries.
            while True:
                req = ctx.armci.nb_put_bytes(
                    d, float(d_shape[0] * d_shape[1] * itemsize))
                if real and detection_on:
                    # Duplicate-safe landing: accumulate into the shared
                    # recovery staging copy and refresh the segment
                    # wholesale through the epoch fence, stamped with the
                    # claim generation — so the presumed-dead owner's own
                    # late commit (older stamp) is rejected, and a retried
                    # put re-applies the same staged array idempotently.
                    stamp = board.claim_epoch.get(d, 0)

                    def _land(ev, d=d, part=partial, stamp=stamp):
                        if not ev.ok:
                            return
                        staged = board.staging.get(d)
                        if staged is None:
                            staged = board.staging[d] = np.zeros(
                                part.shape, dtype=part.dtype)
                        staged += part
                        c.fenced_write_block(d, staged, stamp)
                    req.done.add_callback(_land)
                elif real:
                    seg = ctx.armci._rt.segment(d, c._key)

                    def _land(ev, seg=seg, part=partial):
                        if ev.ok:
                            seg += part
                    req.done.add_callback(_land)
                issued_requests.append(req)
                try:
                    yield from req.wait()
                except NodeCrashedError:
                    continue
                break

        def commit_own_block():
            """Epoch-fenced publication of this rank's finished C block.

            With imperfect detection the block was computed in a private
            copy; one self-put (loopback through the node memory system)
            models the commit, and the landing write is admitted only if
            no recovery claim fenced this block in the meantime — the
            duplicate-safety half of the protocol.  A rejected commit is
            harmless by construction: recovery already owns the block.
            """
            req = ctx.armci.nb_put_bytes(ctx.rank, ckpt_nbytes)
            issued_requests.append(req)
            try:
                yield from req.wait()
            except NodeCrashedError:
                return  # our own node died under us; nothing to publish
            if real:
                c.fenced_write_block(ctx.rank, c_local, start_gen)
            else:
                membership.admit_write(ctx.rank, start_gen)

        def recover_crashed():
            """Survivor side of the recovery protocol (see core/recovery.py)."""
            machine = ctx.machine

            def believed_dead():
                if detection_on:
                    # sees_confirmed, not presumed_dead: confirmation is
                    # *sticky* — a rejoined node is a transfer target
                    # again, but its rank processes stay written off, so
                    # their C blocks still need recovery.  Node-mates are
                    # never believed dead (their liveness is directly
                    # observable through shared memory), nor is self.
                    return [r for r in range(dist_c.nranks)
                            if not machine.same_node(ctx.rank, r)
                            and membership.sees_confirmed(
                                my_node, machine.node_of(r))]
                return [r for r in range(dist_c.nranks)
                        if machine.rank_is_dead(r)]

            if detection_on:
                # Don't leave recovery while the detector is undecided: an
                # open suspicion resolves within confirm_grace — either a
                # heartbeat clears it or confirmation hands us a share.
                while (membership.views[my_node].suspected
                       and board.assignment is None):
                    yield ctx.engine.timeout(injector.plan.detector.period)
            dead = believed_dead()
            if dead and board.assignment is None:
                def restore(d: int) -> None:
                    if not real:
                        return
                    snap = board.snapshots.get(d)
                    if snap is not None:
                        ctx.armci._rt.segment(d, c._key)[...] = snap
                    if detection_on:
                        # Seed the shared staging copy recovery partials
                        # accumulate into (duplicate-safe write-back).
                        board.staging[d] = np.array(
                            ctx.armci._rt.segment(d, c._key), copy=True)

                build_assignment(
                    machine, board, dead, dist_c.nranks, restore,
                    lambda d: _build_plan(
                        machine, d, dist_c.coords_of(d), dist_a, dist_b,
                        dist_c, transa, transb, flavor,
                        options.schedule)[0])
            if board.assignment is not None:
                # Execute our share even if our own (lagging) view has not
                # yet confirmed anyone: the assignment is authoritative.
                share = board.assignment.get(ctx.rank, ())
                by_dead: dict[int, list[int]] = {}
                for d, ti in share:
                    by_dead.setdefault(d, []).append(ti)
                for d in sorted(by_dead):
                    yield from _recover_one(d, by_dead[d])
            board.exited.add(ctx.rank)

    # ----- execution -------------------------------------------------------------
    if flavor == "cluster" and options.dynamic and any(needs_get):
        yield from _run_dynamic(ctx, tasks, needs_get, issue_gets, run_dgemm,
                                options.pipeline_depth, wait_requests)
    elif flavor == "cluster" and options.nonblocking and any(needs_get):
        # Double-buffered pipeline (paper §3.1 steps 3-4).  The two buffers
        # belong to the *remote* task subsequence: the first remote task's
        # gets are issued immediately, so any domain-local tasks at the head
        # of the list compute while that transfer is in flight ("we do not
        # have to wait to start the pipeline"); thereafter, reaching remote
        # task r_t first launches r_{t+1}'s gets (into the other buffer) and
        # then waits for r_t's own data.
        remote_seq = [i for i, ng in enumerate(needs_get) if ng]
        pending: dict[int, tuple] = {remote_seq[0]: issue_gets(remote_seq[0])}
        next_ptr = 1
        for i in range(len(tasks)):
            if needs_get[i]:
                arrays, reqs = pending.pop(i)
                if next_ptr < len(remote_seq):
                    nxt = remote_seq[next_ptr]
                    pending[nxt] = issue_gets(nxt)
                    next_ptr += 1
                yield from wait_requests(reqs)
            else:
                arrays, _ = issue_gets(i)  # views only; no requests
            yield from run_dgemm(i, arrays)
    else:
        for i in range(len(tasks)):
            if flavor == "copy":
                arrays = yield from acquire_copies(i)
            else:
                arrays, reqs = issue_gets(i)
                yield from wait_requests(reqs)
            yield from run_dgemm(i, arrays)

    if recovery_on:
        # Own block done: publish it (epoch-fenced under imperfect
        # detection), then flip to survivor duty and pick up any work a
        # crashed rank left behind (no-op when nothing has crashed).
        board.finished.add(ctx.rank)
        if detection_on:
            yield from commit_own_block()
        yield from recover_crashed()

    if detection_on:
        stats.suspected = membership.suspect_counts.get(
            ctx.machine.node_of(ctx.rank), 0)
        stats.false_suspicions = membership.false_suspicion_counts.get(
            ctx.machine.node_of(ctx.rank), 0)
        stats.stale_epoch_rejected = membership.rejected_counts.get(
            ctx.rank, 0)
    if ctx.machine.watchdog is not None:
        stats.stalls_diagnosed = ctx.machine.watchdog.stalls

    stats.comm_time += sum(r.duration or 0.0 for r in issued_requests)
    return stats


def _run_dynamic(ctx: RankContext, tasks, needs_get, issue_gets, run_dgemm,
                 depth: int, wait_requests) -> Generator:
    """Dynamic schedule: remote prefetch pipeline + local tasks as filler.

    Up to ``depth`` remote tasks have their gets outstanding.  The executor
    repeatedly picks the first remote task whose data has fully arrived; if
    none is ready it computes a held-back domain-local task instead, and
    only blocks when no local filler remains.
    """
    remote = [i for i, ng in enumerate(needs_get) if ng]
    local = [i for i, ng in enumerate(needs_get) if not ng]

    # (task index, arrays, requests) in issue order.
    inflight: list[tuple[int, list, list]] = []
    next_remote = 0

    def refill():
        nonlocal next_remote
        while next_remote < len(remote) and len(inflight) < depth:
            idx = remote[next_remote]
            arrays, reqs = issue_gets(idx)
            inflight.append((idx, arrays, reqs))
            next_remote += 1

    refill()
    local_ptr = 0
    while inflight or local_ptr < len(local):
        ready = next((entry for entry in inflight
                      if all(r.test() for r in entry[2])), None)
        if ready is not None:
            inflight.remove(ready)
            refill()
            idx, arrays, reqs = ready
            yield from wait_requests(reqs)  # already done; accounts zero wait
            yield from run_dgemm(idx, arrays)
        elif local_ptr < len(local):
            idx = local[local_ptr]
            local_ptr += 1
            arrays, _ = issue_gets(idx)  # views only
            yield from run_dgemm(idx, arrays)
        else:
            # Nothing ready and no filler left: block on the oldest.
            idx, arrays, reqs = inflight.pop(0)
            refill()
            yield from wait_requests(reqs)
            yield from run_dgemm(idx, arrays)
