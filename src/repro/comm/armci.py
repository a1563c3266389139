"""ARMCI-style one-sided communication (Aggregate Remote Memory Copy).

Mirrors the subset of ARMCI the paper relies on (§3.3):

- collective memory registration (``ARMCI_Malloc`` — here :meth:`Armci.malloc`
  / :meth:`ArmciRuntime.register`): every rank's segment is visible to every
  other rank, and the *cluster locality query* tells callers which ranks
  share their memory domain;
- blocking and nonblocking ``get``/``put`` of rectangular sections;
- protocol selection by locality:

  * same shared-memory domain → the get is a plain memory copy executed by
    the calling CPU (no overlap possible, but very fast);
  * remote domain, zero-copy NIC (Myrinet GM) → the NIC moves the payload;
    the initiating CPU is free immediately after issuing the descriptor and
    the target host CPU is never involved — this is what makes ~99% overlap
    possible (paper Fig. 7) and what Fig. 9 switches off;
  * remote domain, host-assisted (IBM LAPI, or zero-copy disabled) → the
    *target's* CPU must copy between user and DMA buffers before the wire
    transfer, stealing cycles from the target's computation.

Numerical semantics: payloads are snapshotted at issue time and delivered at
completion time, so concurrent readers always see a consistent block.

Every operation also exists in a *byte-level* form (``nb_get_bytes``,
``nb_put_bytes``) with identical timing but no payload — the large-N
benchmark sweeps use these so a simulated 12000x12000 run does not have to
move gigabytes of real numpy data.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from ..sim.cluster import Machine
from ..sim.engine import Event, Interrupt
from ..sim.membership import DEAD as _MEMBER_DEAD
from ..sim.membership import REJOINED as _MEMBER_REJOINED
from ..sim.network import Link
from .base import (CommError, GetFailedError, NodeCrashedError, Request,
                   supervised_yield)

__all__ = ["ArmciRuntime", "Armci"]

Index = Union[slice, tuple]


def _normalize_index(index: Optional[Index]) -> tuple:
    if index is None:
        return (slice(None),)
    if isinstance(index, tuple):
        return index
    return (index,)


def _noop() -> None:
    return None


def _sel_span(dim: int, sel) -> tuple[int, int, int, int]:
    """(count, step, lowest index, highest index) of one index expression."""
    if isinstance(sel, slice):
        r = range(*sel.indices(dim))
        if len(r) == 0:
            return 0, 1, 0, -1
        return len(r), r.step, min(r[0], r[-1]), max(r[0], r[-1])
    i = sel if sel >= 0 else sel + dim
    return 1, 1, i, i  # integer index


def _section_segments(array_shape, idx: tuple) -> int:
    """Number of maximal contiguous memory intervals a row-major section
    spans, floored at 1 (even an empty get issues one descriptor).

    This is exactly the numpy-derived oracle gated by
    ``tests/comm/test_armci_sections.py``: sort the section's flat
    addresses and count runs of consecutive ones.  A unit-|step| column
    range is one interval per row; a |step| > 1 stride splits every
    element into its own.  Row boundaries merge intervals only when the
    row range is dense (|step| = 1) and the column selection touches both
    edges of the stored row -- then each row's tail abuts the next row's
    head.  Direction never matters: a negative step touches the same
    addresses as its positive mirror.
    """
    if not array_shape:
        return 1
    if len(array_shape) == 1:
        n, step, _, _ = _sel_span(array_shape[0],
                                  idx[0] if idx else slice(None))
        return n if n > 1 and abs(step) > 1 else 1
    nr, rs, _, _ = _sel_span(array_shape[0],
                             idx[0] if len(idx) >= 1 else slice(None))
    nc, cs, clo, chi = _sel_span(array_shape[1],
                                 idx[1] if len(idx) >= 2 else slice(None))
    if nr == 0 or nc == 0:
        return 1
    per_row = 1 if (nc == 1 or abs(cs) == 1) else nc
    segments = nr * per_row
    if nr > 1 and abs(rs) == 1 and clo == 0 and chi == array_shape[1] - 1:
        # Each row's last interval abuts the next row's first one.
        segments = 1 if per_row == 1 else segments - (nr - 1)
    return segments


class ArmciRuntime:
    """Shared state: the registry of remotely accessible memory segments."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._segments: dict[tuple[int, str], np.ndarray] = {}
        # Outstanding one-sided *store* operations (puts/accs) per
        # (caller, target) pair, for ARMCI_Fence semantics.
        self._outstanding: dict[tuple[int, int], list] = {}
        # Scalar counters for read-modify-write (ARMCI_Rmw), keyed like
        # segments; each value is a python int mutated atomically at the
        # simulated completion instant.
        self._counters: dict[tuple[int, str], int] = {}
        # In-flight operations tracked for the node-crash sweep (populated
        # only when the fault plan contains crashes; empty overhead
        # otherwise).  Keyed by completion event -> (caller, target, req).
        self._inflight: dict[Event, tuple[int, int, "Request"]] = {}
        machine.on_node_crash(self._node_crashed)

    # -- hard-failure handling ---------------------------------------------
    def _node_crashed(self, node: int) -> None:
        """Sweep in-flight operations touching the dead node.

        Runs synchronously at the kill instant, before the rank processes
        on the node are interrupted (listener registration order): a dead
        *caller*'s transport is torn down silently — its completion event
        stays untriggered so the imminent interrupt cannot race a late
        success — while an operation whose *target* died fails with
        :class:`NodeCrashedError` so the live caller's robust wait can
        re-issue against the replica.

        Under a failure detector the kill-instant call is a no-op: nobody
        *knows* the node died yet, so survivors' transfers keep (not)
        progressing until the monitor confirms the death, at which point
        :meth:`Machine.notify_confirmed` re-fires this listener and the
        sweep runs — at detection time, with detection-lag cost.  The
        listener is idempotent, so the double fire is safe.
        """
        machine = self.machine
        membership = machine.membership
        if membership is not None and membership.state.get(node) not in (
                _MEMBER_DEAD, _MEMBER_REJOINED):
            return
        for done, (caller, target, req) in list(self._inflight.items()):
            if done.triggered:
                continue
            caller_dead = machine.rank_is_dead(caller)
            target_dead = machine.rank_is_dead(target)
            if not (caller_dead or target_dead):
                continue
            self._inflight.pop(done, None)
            if caller_dead:
                hook, req._cancel_hook = req._cancel_hook, None
                if hook is not None:
                    hook()
            else:
                req.cancel(NodeCrashedError(
                    node, f"{req.kind} targeting rank {target}"))

    def _track(self, caller: int, target: int, req: "Request") -> "Request":
        pend = self._outstanding.setdefault((caller, target), [])
        pend.append(req.done)
        req.done.add_callback(
            lambda _ev: pend.remove(req.done) if req.done in pend else None)
        return req

    # -- registration ------------------------------------------------------
    def register(self, rank: int, key: str, array: np.ndarray) -> np.ndarray:
        """Make ``array`` remotely accessible as ``(rank, key)``."""
        self.machine._check_rank(rank)
        if (rank, key) in self._segments:
            raise CommError(f"segment {key!r} already registered for rank {rank}")
        if not isinstance(array, np.ndarray):
            raise TypeError("ARMCI segments must be numpy arrays")
        self._segments[(rank, key)] = array
        return array

    def segment(self, rank: int, key: str) -> np.ndarray:
        try:
            return self._segments[(rank, key)]
        except KeyError:
            raise CommError(f"no segment {key!r} registered for rank {rank}") from None

    def has_segment(self, rank: int, key: str) -> bool:
        return (rank, key) in self._segments

    # -- transfer machinery -----------------------------------------------
    def _stream_path(self, src_rank: int, dst_rank: int) -> list[Link]:
        """Path of an intra-domain memory copy, capped at single-stream rate.

        The private head link models the copying CPU's single-stream
        bandwidth; the shared tail links model node memory / NUMA fabric
        contention.
        """
        cap = Link("memcpy-stream", self.machine.spec.memory.copy_bandwidth)
        return [cap] + self.machine.shmem_path(src_rank, dst_rank)

    def _redirect(self, caller: int, target: int, counter: str) -> int:
        """The rank whose links serve a transfer ``caller`` aims at ``target``.

        When the target is *believed* dead (oracle truth without a
        detector, the caller's membership view with one) the transfer is
        served by a replica shard: timing and contention follow the
        replica's links, while the payload still moves through the
        registry, which models the replica's identical copy.  Spreading by
        caller declusters reconstruction reads (and the checkpoint and
        write-back puts that keep working after a buddy dies) across live
        nodes.
        """
        machine = self.machine
        if ((machine.dead_nodes or machine.membership is not None)
                and machine.presumed_dead(caller, target)):
            target = machine.replica_for(caller, target, spread=caller)
            machine.tracer.bump(counter)
        return target

    def _register(self, caller: int, target: int, done: Event, kind: str,
                  nbytes: float, cancel: Optional[Callable[[], None]] = None,
                  corrupted: bool = False) -> Request:
        """The :class:`Request` for a transfer whose completion is ``done``.

        ``cancel`` tears the transport down (aborts the flow or interrupts
        the protocol process).  When the fault plan contains crashes, the
        request is also tracked for the node-crash sweep until it
        completes; otherwise there is no tracking overhead.
        """
        req = Request(done, kind=kind, nbytes=nbytes,
                      issued_at=self.machine.engine.now)
        req.corrupted = corrupted
        req._cancel_hook = cancel
        faults = self.machine.faults
        if (faults is None or not getattr(faults, "has_crashes", False)
                or done.triggered):
            return req
        self._inflight[done] = (caller, target, req)
        done.add_callback(lambda _ev: self._inflight.pop(done, None))
        return req

    def _transfer(self, kind: str, caller: int, target: int, nbytes: float,
                  deliver: Callable[[], None] = _noop, segments: int = 1,
                  reliable: bool = False, failable: bool = True) -> Request:
        """Timing core of a get (``kind="get"``, data flows target -> caller)
        or a put (``kind="put"``, caller -> target); ``deliver`` runs right
        before completion.

        Used by both the data-carrying and the byte-level facades, so the
        two paths can never drift apart.  ``segments`` > 1 charges a get
        the strided-transfer descriptor cost (``sg_overhead`` per extra
        segment) on remote-domain paths.

        Get-only fault-injection knobs (no-ops on a healthy machine):

        - ``reliable=True`` requests guaranteed delivery: the get uses the
          host-assisted blocking-copy protocol even on zero-copy NICs and
          is exempt from injected failures — the ``max_retries`` fallback
          of the SRUMMA robust wait.
        - ``failable=False`` exempts the get from injected failures without
          changing its protocol; used by latency-bound control round trips
          (RMW) that real runtimes acknowledge at the protocol level.
        """
        machine = self.machine
        engine = machine.engine
        spec = machine.spec
        net = spec.network
        get = kind == "get"
        machine.tracer.bump("armci_" + kind)
        if get:
            sg_extra = max(0, segments - 1) * net.sg_overhead
            zc_latency = net.rma_latency + sg_extra
            hc_latency = net.rma_latency / 2.0 + sg_extra
        else:
            zc_latency = hc_latency = net.latency
        target = self._redirect(caller, target, f"fault:{kind}_redirected")
        src, dst = (target, caller) if get else (caller, target)

        if machine.same_domain(caller, target):
            # Intra-domain transfer: the calling CPU performs a memcpy
            # through the node memory system (or NUMA fabric).  Contends
            # max-min fairly with other copies; no overlap is possible.
            done = engine.event("armci.get.shmem" if get else "armci.put")

            def copier():
                cpu = machine.cpu(caller)
                t0 = engine.now
                grant = cpu.request()
                try:
                    yield grant
                except Interrupt:
                    if not cpu.cancel(grant):
                        cpu.release()
                    return
                flow = machine.transfer(
                    nbytes, self._stream_path(src, dst),
                    latency=spec.memory.shmem_latency,
                    label=f"armci-{kind}-shm {src}->{dst}")
                try:
                    yield flow
                except Interrupt:
                    machine.net.abort(flow)
                    return
                finally:
                    cpu.release()
                machine.tracer.account(caller, "copy", engine.now - t0)
                deliver()
                if not done.triggered:
                    done.succeed(nbytes)

            proc = engine.spawn(copier(), name=f"armci-shm-{kind}@{caller}")
            return self._register(caller, target, done, kind, nbytes,
                                  proc.interrupt)

        # Remote-domain transfer over the interconnect.
        path = machine.network_path(src, dst)
        done = engine.event("armci.get.rma" if get else "armci.put")
        corrupted = False
        faults = machine.faults
        if get and faults is not None and failable and not reliable:
            if faults.draw_get_failure(caller):
                # Injected in-flight loss: no payload moves; the caller
                # observes GetFailedError after the plan's detection delay.
                machine.tracer.bump("fault:get_failed")
                engine._schedule(
                    faults.plan.detect_timeout,
                    lambda: (done.fail(GetFailedError(caller, target, nbytes))
                             if not done.triggered else None))
                return self._register(caller, target, done, kind, nbytes)
            corrupted = faults.draw_corruption(caller)
            if corrupted:
                machine.tracer.bump("fault:corruption_injected")

        if net.zero_copy and not reliable:
            # The NIC moves the payload; neither host CPU is involved.
            flow = machine.transfer(nbytes, path, latency=zc_latency,
                                    label=f"armci-{kind} {src}->{dst}")

            def finish(_ev):
                if done.triggered:
                    return
                deliver()
                done.succeed(nbytes)

            flow.add_callback(finish)
            return self._register(caller, target, done, kind, nbytes,
                                  lambda: machine.net.abort(flow), corrupted)

        # Host-assisted protocol: a get's request first travels to the
        # target.  The target's CPU copies user buffer <-> DMA buffer
        # *pipelined* with the wire transfer (chunked staging, as LAPI
        # does): the transfer rate is capped by the host copy rate, and the
        # target's CPU is occupied for the copy — stolen FIFO from whatever
        # computation the target is doing (the Fig. 9 mechanism).
        def host_assisted():
            if get:
                try:
                    yield engine.timeout(net.rma_latency / 2.0)
                except Interrupt:
                    return
            cpu = machine.cpu(target)
            grant = cpu.request()
            try:
                yield grant
            except Interrupt:
                if not cpu.cancel(grant):
                    cpu.release()
                return
            copy_time = nbytes / net.host_copy_bandwidth
            stream = Link("hostcopy-stream", net.host_copy_bandwidth)
            flow = machine.transfer(nbytes, [stream] + list(path),
                                    latency=hc_latency,
                                    label=f"armci-{kind}-hc {src}->{dst}")

            def copier():
                try:
                    wall = yield from machine.cpu_busy(target, copy_time)
                    machine.tracer.account(target, "copy", wall)
                except Interrupt:
                    return
                finally:
                    cpu.release()

            copy_done = engine.spawn(copier(), name=f"armci-hc-copy@{target}")
            try:
                yield engine.all_of([flow, copy_done])
            except Interrupt:
                machine.net.abort(flow)
                copy_done.interrupt()
                return
            deliver()
            if not done.triggered:
                done.succeed(nbytes)

        proc = engine.spawn(host_assisted(), name=f"armci-hc-{kind}@{target}")
        return self._register(caller, target, done, kind, nbytes,
                              proc.interrupt, corrupted)

    def acc_transfer(self, caller: int, target: int, nbytes: float,
                     n_elements: int,
                     deliver: Callable[[], None] = _noop) -> Request:
        """Timing core of an accumulate: a put whose payload must also be
        *added* into the target's memory by the target CPU (even zero-copy
        NICs cannot do the arithmetic), element-atomically at completion."""
        machine = self.machine
        engine = machine.engine
        spec = machine.spec
        machine.tracer.bump("armci_acc")
        done = engine.event("armci.acc")
        target = self._redirect(caller, target, "fault:put_redirected")

        def accumulate():
            # Move the payload like a put (wire or intra-domain memcpy)...
            if machine.same_domain(caller, target):
                stream = self._stream_path(caller, target)
                flow = machine.transfer(nbytes, stream,
                                        latency=spec.memory.shmem_latency,
                                        label=f"armci-acc-shm {caller}->{target}")
            else:
                path = machine.network_path(caller, target)
                flow = machine.transfer(nbytes, path,
                                        latency=spec.network.latency,
                                        label=f"armci-acc {caller}->{target}")
            try:
                yield flow
            except Interrupt:
                machine.net.abort(flow)
                return
            # ...then the target CPU performs the addition (1 flop/element).
            cpu = machine.cpu(target)
            grant = cpu.request()
            try:
                yield grant
            except Interrupt:
                if not cpu.cancel(grant):
                    cpu.release()
                return
            try:
                add_time = n_elements / spec.cpu.flops
                wall = yield from machine.cpu_busy(target, add_time)
                machine.tracer.account(target, "copy", wall)
            except Interrupt:
                return
            finally:
                cpu.release()
            deliver()
            if not done.triggered:
                done.succeed(nbytes)

        proc = engine.spawn(accumulate(), name=f"armci-acc@{target}")
        return self._register(caller, target, done, "acc", nbytes,
                              proc.interrupt)

    # -- data-carrying issue helpers --------------------------------------------
    def _issue_get(self, caller: int, target: int, key: str,
                   src_index: Optional[Index], out: np.ndarray,
                   out_index: Optional[Index],
                   reliable: bool = False) -> Request:
        src = self.segment(target, key)
        sidx = _normalize_index(src_index)
        payload = np.array(src[sidx], copy=True)  # snapshot at issue
        oidx = _normalize_index(out_index)
        if out[oidx].shape != payload.shape:
            raise CommError(
                f"get shape mismatch: source section {payload.shape} vs "
                f"destination section {out[oidx].shape}")

        def deliver():
            out[oidx] = payload.reshape(out[oidx].shape)

        req = self._transfer("get", caller, target, float(payload.nbytes),
                             deliver, segments=_section_segments(src.shape, sidx),
                             reliable=reliable)
        if req.corrupted and payload.size and payload.dtype == np.float64:
            # Injected silent corruption: flip the low exponent bit of one
            # element of the in-flight payload (the snapshot, never the
            # source array), so the delivered section really is wrong and
            # only an ABFT checksum can tell.
            flat = payload.reshape(-1).view(np.int64)
            flat[payload.size // 2] ^= np.int64(1) << np.int64(52)
        return req

    def _issue_put(self, caller: int, target: int, key: str,
                   dst_index: Optional[Index], data: np.ndarray) -> Request:
        dst = self.segment(target, key)
        didx = _normalize_index(dst_index)
        payload = np.array(data, copy=True)  # snapshot at issue
        if dst[didx].shape != payload.shape:
            raise CommError(
                f"put shape mismatch: data {payload.shape} vs destination "
                f"section {dst[didx].shape}")

        def deliver():
            dst[didx] = payload.reshape(dst[didx].shape)

        return self._transfer("put", caller, target, float(payload.nbytes),
                              deliver)


class Armci:
    """Per-rank ARMCI facade."""

    def __init__(self, runtime: ArmciRuntime, rank: int):
        self._rt = runtime
        self.rank = rank

    # -- memory ------------------------------------------------------------
    def malloc(self, key: str, shape: Sequence[int],
               dtype: Any = np.float64) -> np.ndarray:
        """Allocate and register this rank's part of a shared segment.

        Collective in spirit: every rank should call it with the same key
        (as with ``ARMCI_Malloc``); the registry enforces per-rank uniqueness.
        """
        arr = np.zeros(tuple(shape), dtype=dtype)
        return self._rt.register(self.rank, key, arr)

    def local(self, key: str) -> np.ndarray:
        """This rank's own segment."""
        return self._rt.segment(self.rank, key)

    # -- locality query (ARMCI cluster information, paper §3.3) -------------
    def domain_of(self, rank: int) -> int:
        return self._rt.machine.domain_of(rank)

    def same_domain(self, rank: int) -> bool:
        return self._rt.machine.same_domain(self.rank, rank)

    def domain_ranks(self) -> list[int]:
        """Ranks sharing this rank's memory domain (including self)."""
        return self._rt.machine.ranks_in_domain(self._rt.machine.domain_of(self.rank))

    # -- one-sided operations -------------------------------------------------
    def nb_get(self, target: int, key: str, out: np.ndarray,
               src_index: Optional[Index] = None,
               out_index: Optional[Index] = None,
               reliable: bool = False) -> Request:
        """Nonblocking get of ``segment(target,key)[src_index]`` into
        ``out[out_index]``.  Returns a :class:`Request`.

        ``reliable=True`` requests the guaranteed-delivery blocking-copy
        protocol (fault-injection fallback; see :meth:`ArmciRuntime._transfer`)."""
        return self._rt._issue_get(self.rank, target, key, src_index, out,
                                   out_index, reliable=reliable)

    def get(self, target: int, key: str, out: np.ndarray,
            src_index: Optional[Index] = None,
            out_index: Optional[Index] = None):
        """Blocking get (generator): issue then wait, accounting the block."""
        req = self.nb_get(target, key, out, src_index, out_index)
        yield from self._wait(req)
        return req

    def nb_put(self, target: int, key: str, data: np.ndarray,
               dst_index: Optional[Index] = None) -> Request:
        """Nonblocking put of ``data`` into ``segment(target,key)[dst_index]``."""
        return self._rt._track(
            self.rank, target,
            self._rt._issue_put(self.rank, target, key, dst_index, data))

    def nb_acc(self, target: int, key: str, data: np.ndarray,
               dst_index: Optional[Index] = None,
               scale: float = 1.0) -> Request:
        """Nonblocking accumulate: ``segment[dst_index] += scale * data``.

        Element-atomic at the target (ARMCI_Acc semantics): concurrent
        accumulates from different ranks all land."""
        dst = self._rt.segment(target, key)
        didx = _normalize_index(dst_index)
        payload = np.array(data, copy=True)  # snapshot at issue
        if dst[didx].shape != payload.shape:
            raise CommError(
                f"acc shape mismatch: data {payload.shape} vs destination "
                f"section {dst[didx].shape}")

        def deliver():
            dst[didx] += scale * payload.reshape(dst[didx].shape)

        req = self._rt.acc_transfer(self.rank, target, float(payload.nbytes),
                                    int(payload.size), deliver)
        return self._rt._track(self.rank, target, req)

    def acc(self, target: int, key: str, data: np.ndarray,
            dst_index: Optional[Index] = None, scale: float = 1.0):
        """Blocking accumulate (generator)."""
        req = self.nb_acc(target, key, data, dst_index, scale)
        yield from self._wait(req)
        return req

    def rmw_counter(self, key: str, initial: int = 0) -> None:
        """Register a shared counter owned by this rank (for ARMCI_Rmw)."""
        ck = (self.rank, key)
        if ck in self._rt._counters:
            raise CommError(f"counter {key!r} already exists on rank {self.rank}")
        self._rt._counters[ck] = initial

    def rmw_fetch_add(self, target: int, key: str, increment: int = 1):
        """Atomic fetch-and-add on a remote counter (generator).

        Returns the counter's value *before* the addition.  Cost: one RMA
        round trip (latency-bound, like a tiny get)."""
        rt = self._rt
        if (target, key) not in rt._counters:
            raise CommError(f"no counter {key!r} on rank {target}")
        # Control round trips are protocol-acknowledged on real runtimes,
        # so they are exempt from injected data-loss (failable=False).
        req = rt._transfer("get", self.rank, target, 8.0, failable=False)

        # The atomic update happens at the simulated completion instant.
        result: dict = {}

        def apply(_ev):
            result["old"] = rt._counters[(target, key)]
            rt._counters[(target, key)] += increment

        req.done.add_callback(apply)
        yield from self._wait(req)
        return result["old"]

    def fence(self, target: Optional[int] = None):
        """Block until this rank's outstanding puts/accs complete (generator).

        ``target=None`` fences all targets (ARMCI_AllFence)."""
        engine = self._rt.machine.engine
        pending = []
        for (c, t), events in self._rt._outstanding.items():
            if c == self.rank and (target is None or t == target):
                pending.extend(e for e in events if not e.triggered)
        if pending:
            t0 = engine.now
            yield engine.all_of(list(pending))
            self._rt.machine.tracer.account(self.rank, "comm_wait",
                                            engine.now - t0)

    def put(self, target: int, key: str, data: np.ndarray,
            dst_index: Optional[Index] = None):
        """Blocking put (generator)."""
        req = self.nb_put(target, key, data, dst_index)
        yield from self._wait(req)
        return req

    # -- byte-level (synthetic payload) operations -------------------------------
    def nb_get_bytes(self, target: int, nbytes: float,
                     segments: int = 1, reliable: bool = False) -> Request:
        """Nonblocking get with the full protocol timing but no payload.

        ``segments`` replicates the strided-descriptor cost the equivalent
        data-carrying get would pay; ``reliable`` as in :meth:`nb_get`."""
        if nbytes < 0:
            raise ValueError(f"negative get size {nbytes}")
        return self._rt._transfer("get", self.rank, target, float(nbytes),
                                  segments=segments, reliable=reliable)

    def get_bytes(self, target: int, nbytes: float, segments: int = 1):
        """Blocking byte-level get (generator)."""
        req = self.nb_get_bytes(target, nbytes, segments=segments)
        yield from self._wait(req)
        return req

    def nb_put_bytes(self, target: int, nbytes: float) -> Request:
        """Nonblocking put with the full protocol timing but no payload."""
        if nbytes < 0:
            raise ValueError(f"negative put size {nbytes}")
        return self._rt._transfer("put", self.rank, target, float(nbytes))

    def _wait(self, req: Request):
        machine = self._rt.machine
        engine = machine.engine
        t0 = engine.now
        if not req.done.triggered:
            yield from supervised_yield(
                machine, req.done,
                what=f"rank {self.rank} blocking armci "
                     f"{req.kind or 'op'} of {req.nbytes:.0f}B")
        machine.tracer.account(self.rank, "comm_wait", engine.now - t0)
