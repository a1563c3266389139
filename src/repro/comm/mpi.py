"""Two-sided MPI model: eager + rendezvous protocols, collectives.

The baselines (pdgemm/SUMMA/Cannon) run on this layer, and the protocol
microbenchmarks (paper Figs. 6–8) compare it against ARMCI.  Two modelling
choices carry the paper's findings:

**Eager protocol** (payload ≤ ``eager_threshold``): the sender copies the
payload into a system buffer (sender CPU busy), the message travels
asynchronously, and the receiver copies it out on match (receiver CPU busy).
Sends complete locally, so nonblocking eager messages overlap fully — but
every byte is copied twice, which is why MPI trails ARMCI/shared-memory
bandwidth (Figs. 6, 8).

**Rendezvous protocol** (payload > threshold): an RTS/CTS handshake precedes
a zero-copy wire transfer into the user buffer.  Crucially, the data transfer
only *starts once the sender is inside the MPI library* (blocking send, or
``wait`` on an isend): without a progress thread, a computing host makes no
MPI progress.  This reproduces the sharp overlap collapse above 16 KB the
paper measures in Fig. 7.

Intra-node messages route through the node's memory system when
``mpi_shared_memory_aware`` (still paying per-message overhead and copies —
the reason direct load/store beats MPI on the Altix and X1).
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

from ..sim.cluster import Machine
from ..sim.network import Link
from ..sim.resources import Mailbox
from .base import CommError, Request, supervised_yield

__all__ = ["MpiRuntime", "Mpi", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1


class _Envelope:
    """A message sitting in (or headed for) a receiver's matching queue."""

    __slots__ = ("src", "tag", "kind", "payload", "nbytes", "cts_target")

    def __init__(self, src: int, tag: int, kind: str, payload, nbytes: float,
                 cts_target=None):
        self.src = src
        self.tag = tag
        self.kind = kind  # "eager" | "rts"
        self.payload = payload
        self.nbytes = nbytes
        self.cts_target = cts_target  # rendezvous: sender-side gate info


class _RendezvousState:
    """Sender-side state of one rendezvous transfer."""

    __slots__ = ("payload", "nbytes", "library_gate", "cts", "done")

    def __init__(self, engine, payload, nbytes):
        self.payload = payload
        self.nbytes = nbytes
        # Fires when the sender enters a blocking MPI call (progress rule).
        self.library_gate = engine.event("mpi.library_gate")
        # Fires when the receiver's CTS arrives.
        self.cts = engine.event("mpi.cts")
        self.done = engine.event("mpi.rendezvous_done")


class MpiRuntime:
    """Shared matching queues and transfer machinery."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.engine = machine.engine
        self._queues: dict[int, Mailbox] = {
            r: Mailbox(machine.engine, name=f"mpi.q{r}")
            for r in range(machine.nranks)
        }

    # -- routing -----------------------------------------------------------
    def _msg_path(self, src: int, dst: int) -> list[Link]:
        machine = self.machine
        if src == dst:
            return [machine.nodes[machine.node_of(src)].mem]
        if machine.same_node(src, dst) and self.machine.spec.mpi_shared_memory_aware:
            node = machine.nodes[machine.node_of(src)]
            stream = Link("mpi-shm-stream", machine.spec.memory.copy_bandwidth)
            return [stream, node.mem]
        return machine.network_path(src, dst)

    def _msg_latency(self, src: int, dst: int) -> float:
        machine = self.machine
        if machine.same_node(src, dst) and machine.spec.mpi_shared_memory_aware:
            return machine.spec.memory.shmem_latency
        return machine.spec.network.latency

    # -- copies ------------------------------------------------------------
    def _cpu_copy(self, rank: int, nbytes: float, bucket: str = "copy"):
        """Occupy ``rank``'s CPU for a buffer copy of ``nbytes``."""
        machine = self.machine
        copy_time = nbytes / machine.spec.memory.copy_bandwidth
        cpu = machine.cpu(rank)
        yield cpu.request()
        try:
            yield self.engine.timeout(copy_time)
        finally:
            cpu.release()
        machine.tracer.account(rank, bucket, copy_time)

    def _overhead(self, rank: int, bucket: str = "mpi_overhead"):
        dt = self.machine.spec.network.mpi_overhead
        if dt > 0:
            yield self.engine.timeout(dt)
            self.machine.tracer.account(rank, bucket, dt)
        return None

    # -- send ------------------------------------------------------------------
    def isend(self, src: int, dst: int, tag: int, data: Optional[np.ndarray],
              nbytes: Optional[float] = None) -> Request:
        """Post a nonblocking send; returns a Request.

        Eager: completes when the payload is buffered locally.
        Rendezvous: completes when the wire transfer finishes — and the
        transfer cannot start until the sender passes through a blocking
        MPI call (see module docstring).

        ``data=None`` with explicit ``nbytes`` sends a byte-level message:
        full protocol timing, no payload (synthetic benchmark mode).
        """
        machine = self.machine
        engine = self.engine
        spec = machine.spec
        self.machine._check_rank(dst)
        if data is None:
            if nbytes is None:
                raise ValueError("byte-level isend needs an explicit nbytes")
            payload = None
            nbytes = float(nbytes)
        else:
            payload = np.array(data, copy=True)  # snapshot at issue
            nbytes = float(payload.nbytes)
        machine.tracer.bump("mpi_send")
        eager = nbytes <= spec.network.eager_threshold
        path = self._msg_path(src, dst)
        latency = self._msg_latency(src, dst)

        if eager:
            done = engine.event("mpi.isend.eager")

            def sender():
                # The user->system-buffer copy happens synchronously inside
                # the isend call itself, so it is charged as wall-clock
                # delay but does NOT contend with the caller's CPU resource
                # (the caller IS the CPU doing it; anything the caller does
                # next happens after isend returns in real MPI too, and the
                # copy is bounded by the eager threshold).
                copy_time = nbytes / machine.spec.memory.copy_bandwidth
                yield engine.timeout(spec.network.mpi_overhead + copy_time)
                machine.tracer.account(src, "mpi_overhead", spec.network.mpi_overhead)
                machine.tracer.account(src, "copy", copy_time)
                done.succeed(nbytes)  # buffered: send is locally complete
                yield machine.transfer(nbytes, path, latency=latency,
                                       label=f"mpi-eager {src}->{dst}")
                self._queues[dst].put(
                    _Envelope(src, tag, "eager", payload, nbytes))

            engine.spawn(sender(), name=f"mpi-eager@{src}")
            req = Request(done, kind="isend", nbytes=nbytes, issued_at=engine.now)
            return req

        # Rendezvous.
        state = _RendezvousState(engine, payload, nbytes)

        def sender():
            yield from self._overhead(src)
            # RTS control message to the receiver's matching queue.
            rts_done = machine.transfer(
                0.0, path, latency=spec.network.rendezvous_handshake / 2.0,
                label=f"mpi-rts {src}->{dst}")
            yield rts_done
            self._queues[dst].put(
                _Envelope(src, tag, "rts", None, nbytes, cts_target=state))
            # Progress rule: wait for BOTH the CTS and the sender entering
            # the library before moving data.
            yield state.cts
            yield state.library_gate
            # The MPI data path stages through library buffers, so its
            # per-stream rate is capped by the host copy rate (on fast
            # fabrics like the X1 this is what keeps MPI below the direct
            # load/store bandwidth, Fig. 6).
            stream = Link("mpi-rndv-stream", spec.network.host_copy_bandwidth)
            yield machine.transfer(nbytes, [stream] + list(path),
                                   latency=latency,
                                   label=f"mpi-rndv {src}->{dst}")
            state.done.succeed(nbytes)

        engine.spawn(sender(), name=f"mpi-rndv@{src}")
        req = Request(state.done, kind="isend", nbytes=nbytes, issued_at=engine.now)
        # wait() opens the gate; blocking send opens it immediately.
        req.on_complete = None
        req._rendezvous_state = state  # type: ignore[attr-defined]
        return req

    # -- receive -----------------------------------------------------------------
    def irecv(self, dst: int, src: int, tag: int,
              out: Optional[np.ndarray]) -> Request:
        """Post a nonblocking receive into ``out``; returns a Request.

        ``out=None`` receives a byte-level message (timing only)."""
        machine = self.machine
        engine = self.engine
        machine.tracer.bump("mpi_recv")
        done = engine.event("mpi.irecv")

        def match(env: _Envelope) -> bool:
            return ((src == ANY_SOURCE or env.src == src)
                    and (tag == ANY_TAG or env.tag == tag))

        def receiver():
            env: _Envelope = yield self._queues[dst].recv(match)
            if env.kind == "eager":
                yield from self._overhead(dst)
                yield from self._cpu_copy(dst, env.nbytes)  # sysbuf -> user
                _deliver(out, env.payload)
                done.succeed((env.src, env.tag, env.nbytes))
                return
            # Rendezvous: grant the sender a CTS, then wait for the data.
            state: _RendezvousState = env.cts_target
            cts = machine.transfer(
                0.0, self._msg_path(dst, env.src),
                latency=machine.spec.network.rendezvous_handshake / 2.0,
                label=f"mpi-cts {dst}->{env.src}")
            yield cts
            state.cts.succeed(None)
            yield state.done
            _deliver(out, state.payload)
            done.succeed((env.src, env.tag, env.nbytes))

        engine.spawn(receiver(), name=f"mpi-recv@{dst}")
        return Request(done, kind="irecv",
                       nbytes=float(out.nbytes) if out is not None else 0.0,
                       issued_at=engine.now)


def _deliver(out: Optional[np.ndarray], payload: Optional[np.ndarray]) -> None:
    if out is None:
        return  # byte-level receive: timing only
    if payload is None:
        raise CommError("byte-level message received into a real buffer")
    if out.size != payload.size:
        raise CommError(
            f"receive buffer size {out.size} != message size {payload.size}")
    out[...] = payload.reshape(out.shape)


def _open_gate(req: Request) -> None:
    state = getattr(req, "_rendezvous_state", None)
    if state is not None and not state.library_gate.triggered:
        state.library_gate.succeed(None)


class Mpi:
    """Per-rank MPI facade (generator-based blocking calls)."""

    def __init__(self, runtime: MpiRuntime, rank: int):
        self._rt = runtime
        self.rank = rank

    @property
    def nranks(self) -> int:
        return self._rt.machine.nranks

    # -- point to point ------------------------------------------------------
    def isend(self, dst: int, data: Optional[np.ndarray] = None, tag: int = 0,
              nbytes: Optional[float] = None) -> Request:
        """Nonblocking send; ``data=None`` + ``nbytes`` sends bytes only."""
        return self._rt.isend(self.rank, dst, tag, data, nbytes=nbytes)

    def irecv(self, out: Optional[np.ndarray] = None, src: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``out=None`` receives bytes only."""
        return self._rt.irecv(self.rank, src, tag, out)

    def wait(self, req: Request):
        """Complete a nonblocking op; being here counts as 'in the library',
        which is what lets a pending rendezvous transfer progress."""
        _open_gate(req)
        engine = self._rt.engine
        t0 = engine.now
        if not req.done.triggered:
            yield from supervised_yield(
                self._rt.machine, req.done,
                what=f"rank {self.rank} in MPI wait on "
                     f"{req.kind or 'request'}")
        self._rt.machine.tracer.account(self.rank, "comm_wait", engine.now - t0)
        return req.done.value

    def wait_all(self, reqs: Sequence[Request]):
        for req in reqs:
            _open_gate(req)
        for req in reqs:
            yield from self.wait(req)

    def progress(self, reqs: Sequence[Request]) -> None:
        """Declare the caller inside the library for these requests (the
        state an MPI_Waitall establishes): pending rendezvous transfers may
        progress even before ``wait`` is called on each request."""
        for req in reqs:
            _open_gate(req)

    def send(self, dst: int, data: Optional[np.ndarray] = None, tag: int = 0,
             nbytes: Optional[float] = None):
        """Blocking send (generator); ``data=None`` + ``nbytes`` = bytes only."""
        req = self.isend(dst, data, tag, nbytes=nbytes)
        yield from self.wait(req)

    def recv(self, out: Optional[np.ndarray] = None, src: int = ANY_SOURCE,
             tag: int = ANY_TAG):
        """Blocking receive (generator). Returns (src, tag, nbytes)."""
        req = self.irecv(out, src, tag)
        result = yield from self.wait(req)
        return result

    def sendrecv(self, dst: int, send_data: Optional[np.ndarray], src: int,
                 recv_out: Optional[np.ndarray], send_tag: int = 0,
                 recv_tag: int = ANY_TAG, nbytes: Optional[float] = None):
        """Simultaneous send+receive (deadlock-free shift primitive)."""
        rreq = self.irecv(recv_out, src, recv_tag)
        sreq = self.isend(dst, send_data, send_tag, nbytes=nbytes)
        yield from self.wait_all([sreq, rreq])

    # -- collectives -------------------------------------------------------------
    def bcast(self, buf: Optional[np.ndarray], root: int,
              group: Optional[Sequence[int]] = None, tag: int = 1_000_000,
              nbytes: Optional[float] = None):
        """Binomial-tree broadcast of ``buf`` within ``group`` (generator).

        The root's ``buf`` holds the data; other ranks' ``buf`` is filled.
        Every member of the group must call this with the same arguments.
        ``buf=None`` with ``nbytes`` broadcasts bytes only (synthetic mode).
        """
        if buf is None and nbytes is None:
            raise ValueError("byte-level bcast needs an explicit nbytes")
        ranks = list(group) if group is not None else list(range(self.nranks))
        if self.rank not in ranks:
            raise CommError(f"rank {self.rank} not in broadcast group {ranks}")
        if root not in ranks:
            raise CommError(f"broadcast root {root} not in group {ranks}")
        n = len(ranks)
        if n == 1:
            return
        me = ranks.index(self.rank)
        rt = ranks.index(root)
        vrank = (me - rt) % n

        # Receive from parent first (non-roots), then forward to children.
        if vrank != 0:
            # Parent: clear the lowest set bit of vrank.
            parent_v = vrank & (vrank - 1)
            parent = ranks[(parent_v + rt) % n]
            yield from self.recv(buf, src=parent, tag=tag)
        # Children: set each bit above the lowest set bit of vrank.
        mask = 1
        while mask < n:
            if vrank & (mask - 1) == 0 and vrank + mask < n and (vrank & mask) == 0:
                child = ranks[(vrank + mask + rt) % n]
                yield from self.send(child, buf, tag=tag, nbytes=nbytes)
            mask <<= 1

    def reduce(self, buf: Optional[np.ndarray], root: int,
               op: str = "sum", group: Optional[Sequence[int]] = None,
               tag: int = 4_000_000, nbytes: Optional[float] = None):
        """Binomial-tree reduction into the root's ``buf`` (generator).

        ``buf`` holds this rank's contribution on entry; on exit the root's
        ``buf`` holds the elementwise reduction.  ``op`` is 'sum', 'max' or
        'min'.  ``buf=None`` + ``nbytes`` reduces bytes only, with exactly
        the timing of the payload reduce of that size.
        """
        if buf is None and nbytes is None:
            raise ValueError("byte-level reduce needs an explicit nbytes")
        if op not in ("sum", "max", "min"):
            raise CommError(f"unknown reduce op {op!r}")
        ranks = list(group) if group is not None else list(range(self.nranks))
        if self.rank not in ranks:
            raise CommError(f"rank {self.rank} not in reduce group {ranks}")
        if root not in ranks:
            raise CommError(f"reduce root {root} not in group {ranks}")
        n = len(ranks)
        if n == 1:
            return
        me = ranks.index(self.rank)
        rt = ranks.index(root)
        vrank = (me - rt) % n
        combine = {"sum": np.add, "max": np.maximum, "min": np.minimum}[op]

        # Fan-in: mirror of the broadcast tree. A node receives from every
        # child (vrank + mask for masks above its position), combines, then
        # sends to its parent.  The combine takes no simulated time, so a
        # byte-level reduce (no payload) times exactly like a real one.
        mask = 1
        while mask < n:
            if (vrank & mask) == 0:
                child_v = vrank + mask
                if child_v < n and (vrank & (mask - 1)) == 0:
                    child = ranks[(child_v + rt) % n]
                    incoming = None if buf is None else np.empty_like(buf)
                    yield from self.recv(incoming, src=child, tag=tag)
                    if buf is not None:
                        combine(buf, incoming, out=buf)
            else:
                parent_v = vrank & (vrank - 1)
                parent = ranks[(parent_v + rt) % n]
                yield from self.send(parent, buf, tag=tag, nbytes=nbytes)
                break
            mask <<= 1

    def allreduce(self, buf: Optional[np.ndarray], op: str = "sum",
                  group: Optional[Sequence[int]] = None,
                  tag: int = 4_500_000, nbytes: Optional[float] = None):
        """Reduce to rank 0 of the group, then broadcast (generator)."""
        ranks = list(group) if group is not None else list(range(self.nranks))
        root = ranks[0]
        yield from self.reduce(buf, root=root, op=op, group=ranks, tag=tag,
                               nbytes=nbytes)
        yield from self.bcast(buf, root=root, group=ranks, tag=tag + 1,
                              nbytes=nbytes)

    def barrier(self, group: Optional[Sequence[int]] = None, tag: int = 2_000_000):
        """Dissemination barrier over ``group`` (generator)."""
        ranks = list(group) if group is not None else list(range(self.nranks))
        n = len(ranks)
        if n == 1:
            return
        me = ranks.index(self.rank)
        token = np.zeros(1, dtype=np.int8)
        out = np.zeros(1, dtype=np.int8)
        step = 1
        round_no = 0
        while step < n:
            dst = ranks[(me + step) % n]
            src = ranks[(me - step) % n]
            yield from self.sendrecv(dst, token, src, out,
                                     send_tag=tag + round_no,
                                     recv_tag=tag + round_no)
            step <<= 1
            round_no += 1
