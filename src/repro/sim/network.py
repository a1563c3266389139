"""Flow-level network model with max-min fair bandwidth sharing.

Transfers (flows) traverse a *path* of directed :class:`Link` resources —
typically ``[source NIC egress, fabric, destination NIC ingress]``.  At any
instant the rate of every active flow is the max-min fair allocation computed
by progressive filling; when a flow starts or finishes, affected rates are
recomputed and the corresponding in-flight completion events rescheduled.

This is the mechanism behind the paper's diagonal-shift experiment
(§3.1, Fig. 4): when all processors of one node fetch from the same remote
node, their flows share that node's NIC and each progresses at ``1/k`` of the
link rate; the diagonal shift spreads flows across distinct NIC pairs so each
gets the full rate.

The model is deliberately flow-level (no packets): transfer time for an
uncontended flow over a path with bottleneck bandwidth ``B`` and latency
``L`` is exactly ``L + nbytes / B``, matching the ``t_s + n * t_w`` cost model
of §2.1.

Allocator scaling
-----------------
Recomputing the global allocation on every flow arrival/departure is
quadratic-ish in active flows and floods the engine heap with cancelled
completion entries.  The default ``incremental`` allocator instead:

- restricts each recomputation to the *connected component* of links
  actually touched by the arriving/departing flow (two flows interact only
  if a chain of shared links connects them, so rates outside the component
  provably cannot change);
- skips reallocation entirely when it cannot change any rate (a flow
  joining or leaving an otherwise-empty set of links);
- coalesces all membership changes of one simulated instant into a single
  reallocation pass (a zero-delay flush event);
- settles and reschedules a flow only when its allocated rate actually
  changed, so an undisturbed flow's completion entry stays valid.

``allocator="reference"`` keeps the original full-recompute behaviour
(every pass covers every active flow) under the same pass triggers and
settle/reschedule discipline.  The triggers must match: a pass that runs
between two changes of one instant can move a rate away and back, and
the extra settle at that instant changes ``rate * dt`` rounding.  The
property test in
``tests/sim/test_network_equivalence.py`` cross-checks the two on
randomized workloads bit-for-bit.  The invariants that make the scoped
recomputation exact are written up in ``docs/performance.md``.

Large-rank engine modes
-----------------------
Two further (default-on, individually disableable) mechanisms make the
allocator scale to thousands of ranks; both are *exact*, not approximate
(see "Scaling to thousands of ranks" in ``docs/performance.md``):

- ``aggregation``: progressive filling works on persistent *routes* — one
  per live path, holding every flow on it, which are symmetric under
  max-min fairness and provably freeze together at the same share — so a
  round's bookkeeping scales with distinct paths, and the bottleneck link
  is found through a lazily-invalidated min-heap instead of a linear scan
  over every link in the component.  Each pass also *replays* the
  previous fill instead of redoing it (below).
- ``fast_forward``: flows of one component whose newly allocated rates
  give bitwise-identical completion instants share a single scheduled
  *cohort* entry; the engine jumps straight to the closed-form completion
  time and services the whole cohort in member order, instead of paying a
  heap entry (plus its eventual cancellation) per flow.

``allocator="reference"`` always runs with both modes off — it is the
step-by-step oracle the property tests compare against.

Replaying the last fill
-----------------------
A fill is the ordered list of its rounds: each round's bottleneck link
froze the routes still unfrozen on it at one share.  Fills are kept, and
a pass re-runs progressive filling only for the links *in play* — the
dirty links (membership, weight or capacity changed since the last pass),
the links of routes no fill has decided yet, and the links of every route
re-decided on the way.  Every other round is replayed in O(1).  The result
is bitwise that of filling the same components from scratch
(:meth:`FlowNetwork._fill`, tie-breaks included) because:

- **A clean link keeps its state.**  A link not in play has the same
  routes, weights, capacity and order key as in the old fill, and every
  route it carries that froze so far froze in a replayed round at its old
  share.  So its residual and unfrozen count are the old fill's at the
  same point of the round sequence.  The next old round whose bottleneck
  is clean is therefore the smallest ``(share, key)`` among clean links,
  and it competes with the links in play through one heap.  An old round
  whose bottleneck is in play is superseded; the links its routes cross
  enter play at that point, with the residual rebuilt from the rounds
  replayed so far.
- **The order key is the from-scratch tie-break.**  A link's key is the
  smallest first-flow ``_seq`` among its routes, then the link's position
  in that route's distinct links.  That is exactly the first-occurrence
  order a from-scratch fill scans links in, restricted to any component.
- **Each round is owned by the fill that last ran it.**  A pass walks
  every fill owning a route on a link in play; all routes of one component
  always belong to one fill, so the walk covers whole components.  The
  walk consumes those fills: each of their rounds is replayed into the new
  fill, superseded, or dropped, so no route refers to an older fill again
  and a re-homed or superseded round is never met twice.  A round left
  with no live route is skipped without side effects.
- **A path that empties and reappears is a new route**, with no round,
  so it is decided afresh.  A flow that joined through the uncontended
  fast path gets its route when something first contends with it.
- **One fill may span several components.**  Their rounds never touch
  each other's links, so fills merge by taking the smaller
  ``(share, key)`` head while keeping each fill's own order.
- **A strictly dominated one-route link never bottlenecks.**  If a link
  carries one route of weight ``w`` and ``bandwidth / w`` is strictly
  greater than another link's on that route, it is left out: that other
  link's residual only falls and its count stays at least ``w``, and IEEE
  division is monotone, so its share is always strictly smaller.  A
  capacity change elsewhere on the route can make such a link count
  again, and it still cannot win early: every round taken before the
  route's old round has a share no larger than the old dominating link's
  ``bandwidth / w``, hence strictly below this link's; if that old round
  is replayed it freezes the route, and if it is superseded the link
  enters play right there.
"""

from __future__ import annotations

import heapq
import operator
from typing import Optional, Sequence, Union

from .engine import Engine, Event, SimulationError, _ScheduledCall

_heappush = heapq.heappush
_heappop = heapq.heappop
_SEQ = operator.attrgetter("_seq")
_FIRST = operator.itemgetter(0)

__all__ = ["Link", "Flow", "FlowNetwork"]

# Flows with fewer remaining bytes than this are considered complete; guards
# against float dust keeping a flow alive forever.  The tolerance must scale
# with the flow size: every reallocation event settles remaining-bytes with
# rate*dt arithmetic, so a megabyte flow legitimately accumulates more
# absolute rounding error than a 100-byte one.
_EPS_BYTES = 1e-6


def _flow_eps(flow: "Flow") -> float:
    return _EPS_BYTES + 1e-9 * flow.size


class Link:
    """A directed link with fixed capacity in bytes/second."""

    __slots__ = ("name", "bandwidth", "flows", "routes", "_bytes_carried",
                 "_mark", "_res", "_cnt", "_key", "_ver")

    def __init__(self, name: str, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError(f"link {name!r} needs positive bandwidth, got {bandwidth}")
        self.name = name
        self.bandwidth = float(bandwidth)
        # Insertion-ordered (dict-as-set): iteration order must be
        # deterministic and independent of object addresses, or simulated
        # event ordering would vary with Python allocation history.
        self.flows: dict["Flow", None] = {}
        # Live path classes crossing this link (grouped filling only).
        self.routes: dict["_Route", None] = {}
        self._bytes_carried = 0.0
        self._mark = 0  # visited stamp for component walks (see _scope_flows)
        # Progressive-filling state while the link is in play in a fill
        # (see FlowNetwork._refill): residual capacity, unfrozen weight,
        # order key and heap-entry version.
        self._res = 0.0
        self._cnt = 0
        self._key = 0
        self._ver = 0

    @property
    def bytes_carried(self) -> float:
        """Total bytes that have crossed this link (for trace/asserts)."""
        return self._bytes_carried

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.bandwidth:.3g} B/s, {len(self.flows)} flows>"


class Flow:
    """One in-flight transfer across a path of links.

    A flow normally carries exactly one logical transfer.  Under flow
    aggregation (see :meth:`FlowNetwork._merge_fresh`) one Flow object can
    *carry* several identical transfers — same path, same size, born at
    the same instant — in which case ``weight`` is the member count and
    ``fanout`` lists each member's ``(seq, done-event, label)`` in start
    order.  Every per-member quantity (``remaining``, ``rate``, the
    completion instant) is bitwise identical across members by
    construction, so the carrier stores it once.
    """

    __slots__ = (
        "size", "remaining", "path", "rate", "done", "started_at",
        "_sched", "_last_update", "_seq", "label", "_mark",
        "weight", "fanout", "route",
    )

    def __init__(self, size: float, path: Sequence[Link], done: Event, label: str = ""):
        self.size = float(size)
        self.remaining = float(size)
        self.path = tuple(path)
        self.rate = 0.0
        self.done = done
        self.started_at: float = 0.0
        self._sched: Union[_ScheduledCall, "_Cohort", None] = None
        self._last_update: float = 0.0
        self._seq = 0  # global start order; keys deterministic scope ordering
        self.label = label
        self._mark = 0  # visited stamp for component walks (see _scope_flows)
        self.weight = 1
        self.fanout: Optional[list] = None  # [(seq, done, label), ...] when merged
        self.route: Optional[_Route] = None  # its path class (grouped filling)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow {self.label!r} {self.remaining:.0f}/{self.size:.0f}B "
                f"@{self.rate:.3g}B/s>")


# A link's order key packs (first flow seq of its earliest route, position in
# that route's distinct links) into one int; positions stay below the stride.
_KEY_STRIDE = 1 << 16


class _Route:
    """Every live flow on one path tuple: the unit grouped filling works in.

    Identical-path flows are symmetric under max-min fairness, so they
    freeze in one round at one ``share``.  A route lives as long as one of
    its flows does; a path that empties and later reappears gets a new
    route.  ``round`` is the round that last froze it (``None`` until a
    fill decides it), ``flows`` is kept in ``_seq`` order.
    """

    __slots__ = ("path", "links", "dups", "weight", "flows", "share",
                 "round", "touch")

    def __init__(self, path: tuple, links: tuple, dups: bool):
        self.path = path
        self.links = links    # distinct links, path order
        self.dups = dups      # path repeats a link
        self.weight = 0       # member transfers over all flows
        self.flows: dict[Flow, None] = {}
        self.share = 0.0
        self.round: Optional[_Round] = None
        self.touch = 0        # fill stamp: crosses a link re-decided in it


class _Round:
    """One progressive-filling round, kept so later fills can replay it.

    ``link`` froze ``routes`` at ``share``; ``key`` is the link's order key
    then.  ``owner`` is the fill (round list) that last executed it;
    ``seq`` orders rounds across fills; ``live``
    counts member routes still alive; ``agg`` is the weight of its
    multi-transfer routes (for ``flows_aggregated``).
    """

    __slots__ = ("share", "key", "link", "routes", "owner", "seq", "live",
                 "agg", "touch")

    def __init__(self, share: float, key: int, link: Link, owner: list,
                 seq: int):
        self.share = share
        self.key = key
        self.link = link
        self.routes: list[_Route] = []
        self.owner = owner
        self.seq = seq
        self.live = 0
        self.agg = 0
        self.touch = 0


class _Cohort:
    """One scheduled engine entry servicing a whole completion cohort.

    Members are flows rescheduled in the same allocation pass whose new
    completion instants are bitwise identical.  Their stepped-mode heap
    entries would occupy consecutive seqs with nothing scheduled between
    them, so firing the members in insertion order from a single entry
    reproduces the exact one-entry-per-flow event order.  A member that is
    individually cancelled (abort, re-allocation) just leaves the cohort;
    the engine entry itself is cancelled only when the last member leaves.
    """

    __slots__ = ("net", "members", "call")

    def __init__(self, net: "FlowNetwork"):
        self.net = net
        self.members: dict[Flow, None] = {}
        self.call: Optional[_ScheduledCall] = None

    def fire(self) -> None:
        net = self.net
        if not net._merge:
            if len(self.members) > 1:
                net.ff_jumps += 1
            for flow in list(self.members):
                net._finish_flow(flow)
            return
        # Aggregated fan-out: one entry may finish several carriers, each
        # carrying several logical transfers.  Stepped mode fires the
        # per-member completion entries in scheduling-seq order, which
        # within one cohort is member start order — so emit every member
        # completion sorted by member seq, with carrier bookkeeping done
        # at its first member's position (exactly where stepped mode
        # removes the flow) and byte accounting folded in the same member
        # order stepped settles would have used.
        entries: list[tuple[int, Flow, Event]] = []
        for flow in self.members:
            fo = flow.fanout
            if fo is None:
                entries.append((flow._seq, flow, flow.done))
            else:
                for seq, done, _label in fo:
                    entries.append((seq, flow, done))
        if len(entries) > 1:
            net.ff_jumps += 1
            entries.sort(key=operator.itemgetter(0))
        sink: dict[Link, list] = {}
        finished: set[Flow] = set()
        for seq, flow, done in entries:
            fo = flow.fanout
            if fo is None:
                # A synchronous completion callback may have aborted a
                # later cohort member; _cancel_sched pops it, so honour
                # the live membership exactly like the stepped loop does.
                if flow not in self.members:
                    continue
            else:
                for e in fo:
                    if e[1] is done:
                        break
                else:
                    continue  # member aborted out of the carrier mid-fire
            if flow not in finished:
                finished.add(flow)
                if not net._finish_carrier(flow, sink):
                    continue
                done.succeed(flow.size)
                if any(link.flows for link in flow.path):
                    net._mark_dirty(flow.path)
            else:
                done.succeed(flow.size)
        net._fold_bytes(sink)


class FlowNetwork:
    """Tracks active flows and keeps their rates max-min fair."""

    def __init__(self, engine: Engine, allocator: str = "incremental",
                 fast_forward: bool = True, aggregation: bool = True):
        if allocator not in ("incremental", "reference"):
            raise ValueError(f"unknown allocator {allocator!r}")
        self.engine = engine
        self.allocator = allocator
        # Engine modes (see module docstring).  The reference allocator is
        # the step-by-step oracle, so it always runs with both modes off.
        if allocator == "reference":
            fast_forward = aggregation = False
        self.fast_forward = fast_forward
        self.aggregation = aggregation
        # Flow merging collapses identical same-instant transfers into one
        # carrier Flow with fan-out completion.  It needs cohort entries to
        # reproduce the stepped completion order, so it is active only when
        # both modes are on (the default).
        self._merge = fast_forward and aggregation
        # Flows started since the last flush — the merge candidates.
        self._fresh: list[Flow] = []
        # Grouped filling's persistent state (see _refill): the live route
        # of each path and the global round counter.
        self._routes: dict[tuple, _Route] = {}
        self._round_seq = 0
        # Insertion-ordered registry of active flows (see Link.flows).
        self._flows: dict[Flow, None] = {}
        self.completed_flows = 0
        self.aborted_flows = 0
        self._flow_seq = 0
        # Flows still in their latency phase, keyed by completion event:
        # not yet in _flows, but abort() must be able to cancel them or a
        # timed-out request would leak its scheduled _start_flow call.
        self._latent: dict[Event, _ScheduledCall] = {}
        # Links whose membership changed since the last reallocation pass,
        # awaiting the same-instant flush.
        self._dirty: dict[Link, None] = {}
        self._flush_pending = False
        # Monotone stamp marking flows/links visited by the current
        # component walk — replaces per-pass visited sets, whose hashing
        # dominated _scope_flows at thousands of ranks.
        self._scope_stamp = 0
        # Profiling counters (see docs/performance.md).
        self.reallocations = 0
        self.realloc_flow_touches = 0
        # Mode hit counters: cohort entries that serviced >=2 completions in
        # one jump, and flows that shared a multi-member path class during
        # grouped filling.  Surfaced as engine:* health counters and in the
        # wall-clock bench JSON so future PRs can see when the fast paths
        # stop firing.
        self.ff_jumps = 0
        self.flows_aggregated = 0

    # -- public API -------------------------------------------------------
    def transfer(self, nbytes: float, path: Sequence[Link], latency: float = 0.0,
                 label: str = "") -> Event:
        """Start a transfer; the returned event fires when the last byte lands.

        ``latency`` is a fixed startup delay (the ``t_s`` term) served before
        the bandwidth phase begins; it does not consume link capacity.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        done = self.engine.event(f"xfer:{label}")
        if nbytes == 0:
            if latency > 0:
                # Guarded: a cancelled request may have failed `done` first.
                self.engine._schedule(
                    latency,
                    lambda: done.succeed(0.0) if not done.triggered else None)
            else:
                done.succeed(0.0)
            return done
        if not path:
            raise ValueError("a nonzero transfer needs a non-empty link path")
        flow = Flow(nbytes, path, done, label=label)
        if latency > 0:
            self._latent[done] = self.engine._schedule(
                latency, lambda: self._start_flow(flow))
        else:
            self._start_flow(flow)
        return done

    @property
    def active_flow_count(self) -> int:
        return len(self._flows)

    def flow_rates(self) -> list[tuple[str, float]]:
        """``(label, rate)`` for every logical in-flight transfer.

        Fan-out aware: a carrier flow reports one entry per merged member
        (all bitwise at the carrier's rate), so observers see the same
        logical traffic whether or not aggregation merged anything.
        """
        out: list[tuple[str, float]] = []
        for f in self._flows:
            fo = f.fanout
            if fo is None:
                out.append((f.label, f.rate))
            else:
                rate = f.rate
                for _seq, _done, label in fo:
                    out.append((label, rate))
        return out

    def set_bandwidth(self, link: Link, bandwidth: float) -> None:
        """Change a link's capacity mid-simulation (fault injection).

        In-flight flows are settled at their old rates up to this instant,
        then the link's connected component is re-allocated max-min fairly —
        exactly the arrival/departure machinery, triggered by a capacity
        change instead of a membership change.  A no-op when the bandwidth
        is unchanged, so restoring after a fault window costs nothing if
        nothing else moved the value meanwhile.
        """
        if bandwidth <= 0:
            raise ValueError(
                f"link {link.name!r} needs positive bandwidth, got {bandwidth}")
        bandwidth = float(bandwidth)
        if bandwidth == link.bandwidth:
            return
        link.bandwidth = bandwidth
        # Only flows constrained by this link (directly or through a chain
        # of shared links) can change rate; an idle link just carries the
        # new capacity forward to future joins.
        if link.flows:
            if self.aggregation:
                for flow in link.flows:
                    if flow.route is None:  # alone here: joined uncontended
                        self._enroll(flow).share = flow.rate
                    break
            self._mark_dirty([link])

    def abort(self, done: Event) -> bool:
        """Tear down the in-flight flow whose completion event is ``done``.

        Settles the flow's progress to the current instant, removes it from
        its links *without* counting it as completed, and re-settles the
        shares of flows that were contending with it.  A flow still in its
        latency phase is cancelled before it ever joins a link.  Returns
        ``False`` when no flow (latent or active) carries the event —
        i.e. it already finished.
        """
        latent = self._latent.pop(done, None)
        if latent is not None:
            self.engine.cancel(latent)
            self.aborted_flows += 1
            return True
        for flow in self._flows:
            if flow.done is done:
                break
            fo = flow.fanout
            if fo is not None and any(e[1] is done for e in fo):
                break
        else:
            return False
        if flow.weight > 1:
            return self._abort_member(flow, done)
        self._settle_flow(flow)
        self._remove(flow, completed=False)
        self.aborted_flows += 1
        if any(link.flows for link in flow.path):
            self._mark_dirty(flow.path)
        return True

    def _abort_member(self, flow: Flow, done: Event) -> bool:
        """Split one aborted member out of a multi-transfer carrier.

        The member's bytes carried since the last settle are accounted
        exactly as the stepped abort's settle would (same ``rate * dt``
        product), but the carrier itself is *not* settled: the surviving
        members' remaining-bytes arithmetic must stay a single
        ``rate * dt`` step per rate change, exactly as stepped survivors
        — which only settle when their allocation actually changes —
        would accumulate it.
        """
        fo = flow.fanout
        for i, entry in enumerate(fo):
            if entry[1] is done:
                break
        dt = self.engine.now - flow._last_update
        if dt > 0:
            moved = flow.rate * dt
            for link in flow.path:
                link._bytes_carried += moved
        fo.pop(i)
        flow.weight -= 1
        route = flow.route
        route.weight -= 1
        if i == 0:
            # The carrier's identity (seq, done, label) tracks its first
            # surviving member so scope ordering matches stepped mode; its
            # route keeps its flows in that order.
            flow._seq, flow.done, flow.label = fo[0]
            route.flows = dict.fromkeys(sorted(route.flows, key=_SEQ))
        self.aborted_flows += 1
        self._mark_dirty(flow.path)
        return True

    # -- internals ----------------------------------------------------------
    def _start_flow(self, flow: Flow) -> None:
        self._latent.pop(flow.done, None)
        now = self.engine.now
        flow.started_at = now
        flow._last_update = now
        flow._seq = self._flow_seq
        self._flow_seq += 1
        self._flows[flow] = None
        path = flow.path
        if not any(link.flows for link in path):
            # Disjoint uncontended join: no existing flow shares any link
            # with this one, so no existing rate can change, and this
            # flow's max-min rate is exactly its path's bottleneck
            # bandwidth (the singleton fair share bw/1 == bw).  Skip the
            # reallocation pass entirely.  The flow gets no route until
            # something contends with it (see _join_route).
            for link in path:
                link.flows[flow] = None
            flow.rate = min(link.bandwidth for link in path)
            flow._sched = self.engine._schedule(
                flow.remaining / flow.rate, lambda: self._finish_flow(flow))
            return
        if self.aggregation:
            self._join_route(flow)
        for link in path:
            link.flows[flow] = None
        if self._merge:
            self._fresh.append(flow)
        self._mark_dirty(path)

    def _join_route(self, flow: Flow) -> None:
        """Put a contending flow on its path's route.

        A flow that joined through the uncontended fast path has no route
        and is alone on every link it crosses, so any flow found alone on
        one of this flow's links gets its route here, undecided, at its
        fast-path rate.  Routes thus cost nothing on traffic that never
        contends.
        """
        for link in flow.path:
            if len(link.flows) == 1:
                for other in link.flows:
                    if other.route is None:
                        self._enroll(other).share = other.rate
        self._enroll(flow)

    def _enroll(self, flow: Flow) -> _Route:
        path = flow.path
        route = self._routes.get(path)
        if route is None:
            links = path
            dups = len(path) > 1 and len(set(path)) != len(path)
            if dups:
                links = tuple(dict.fromkeys(path))
            if len(links) >= _KEY_STRIDE:
                raise ValueError(f"path of {len(links)} links is too long")
            route = self._routes[path] = _Route(path, links, dups)
            for link in links:
                link.routes[route] = None
        route.flows[flow] = None
        route.weight += flow.weight
        flow.route = route
        return route

    def _finish_flow(self, flow: Flow) -> None:
        if flow not in self._flows:
            return
        self._settle_flow(flow)
        # Tolerate small residue from float arithmetic.
        if flow.remaining > _flow_eps(flow):
            raise SimulationError(
                f"flow {flow.label!r} finished with {flow.remaining} bytes left")
        self._remove(flow)
        flow.done.succeed(flow.size)
        if any(link.flows for link in flow.path):
            # Departure frees capacity for whoever shared these links; a
            # flow that was alone on its whole path affects nobody.
            self._mark_dirty(flow.path)

    def _finish_carrier(self, flow: Flow, sink: dict) -> bool:
        """Bookkeep a carrier's completion; the caller emits the fan-out.

        The cohort fire loop owns the per-member ``succeed`` order, so this
        only settles (deferred, into ``sink``) and removes the carrier.
        Returns ``False`` when the flow already left the network.
        """
        if flow not in self._flows:
            return False
        self._settle_deferred(flow, sink)
        if flow.remaining > _flow_eps(flow):
            raise SimulationError(
                f"flow {flow.label!r} finished with {flow.remaining} bytes left")
        self._remove(flow)
        return True

    def _remove(self, flow: Flow, completed: bool = True) -> None:
        self._flows.pop(flow, None)
        for link in flow.path:
            link.flows.pop(flow, None)
        route = flow.route
        if route is not None and flow in route.flows:
            del route.flows[flow]
            route.weight -= flow.weight
            if not route.flows:
                # The path emptied: retire its route, so a later flow on
                # the same path starts a new one.
                del self._routes[route.path]
                for link in route.links:
                    del link.routes[route]
                if route.round is not None:
                    route.round.live -= 1
        self._cancel_sched(flow)
        if completed:
            self.completed_flows += flow.weight

    def _cancel_sched(self, flow: Flow) -> None:
        """Drop a flow's pending completion, whether solo or cohort-shared.

        Removing one member of a cohort must not cancel the shared engine
        entry while other members still ride it — this is what keeps a
        mid-phase ``set_bandwidth`` (fault brownout) exact under
        fast-forward: the re-allocated flows leave their cohorts and get
        fresh completions, while undisturbed members' jump stays valid.
        """
        sched = flow._sched
        if sched is None:
            return
        flow._sched = None
        if type(sched) is _Cohort:
            sched.members.pop(flow, None)
            if not sched.members and sched.call is not None:
                self.engine.cancel(sched.call)
        else:
            self.engine.cancel(sched)

    def _settle_flow(self, flow: Flow) -> None:
        """Advance one flow's remaining-bytes to the current instant."""
        now = self.engine.now
        dt = now - flow._last_update
        if dt > 0:
            moved = flow.rate * dt
            flow.remaining -= moved
            for link in flow.path:
                link._bytes_carried += moved
            flow._last_update = now
        if flow.remaining < 0:
            flow.remaining = 0.0

    def _settle_deferred(self, flow: Flow, sink: dict) -> None:
        """Settle a flow, deferring its byte accounting into ``sink``.

        Stepped mode adds each member's ``rate * dt`` to its links at the
        member's own position in the pass; with carriers in play the
        additions must be re-interleaved by member seq before touching the
        links' float accumulators, or ``bytes_carried`` would drift by
        association.  ``sink`` maps each link to ``(member seq, moved)``
        contributions; :meth:`_fold_bytes` folds them in seq order at the
        end of the pass.
        """
        now = self.engine.now
        dt = now - flow._last_update
        if dt > 0:
            moved = flow.rate * dt
            flow.remaining -= moved
            fo = flow.fanout
            if fo is None:
                seq = flow._seq
                for link in flow.path:
                    contribs = sink.get(link)
                    if contribs is None:
                        contribs = sink[link] = []
                    contribs.append((seq, moved))
            else:
                for link in flow.path:
                    contribs = sink.get(link)
                    if contribs is None:
                        contribs = sink[link] = []
                    for seq, _done, _label in fo:
                        contribs.append((seq, moved))
            flow._last_update = now
        if flow.remaining < 0:
            flow.remaining = 0.0

    def _fold_bytes(self, sink: dict) -> None:
        """Fold deferred byte contributions in member-seq order (see
        :meth:`_settle_deferred`); bitwise-reproduces the stepped order of
        additions onto each link's accumulator."""
        getter = operator.itemgetter(0)
        for link, contribs in sink.items():
            if len(contribs) > 1:
                contribs.sort(key=getter)
            total = link._bytes_carried
            for _seq, moved in contribs:
                total += moved
            link._bytes_carried = total

    # -- reallocation -------------------------------------------------------
    def _mark_dirty(self, links: Sequence[Link]) -> None:
        for link in links:
            self._dirty[link] = None
        if not self._flush_pending:
            self._flush_pending = True
            if self.engine._running:
                # Coalesce: every membership change of this instant lands in
                # one pass when the zero-delay flush fires.
                self.engine._schedule(0.0, self._flush)
            else:
                # Called outside the event loop (setup code, tests): keep
                # the old synchronous semantics so rates are immediately
                # observable.
                self._flush()

    def _flush(self) -> None:
        self._flush_pending = False
        if self._fresh:
            self._merge_fresh()
        dirty, self._dirty = self._dirty, {}
        grouped = self.aggregation
        while dirty:
            if grouped:
                drained = self._refill(dirty)
            else:
                scope = self._scope_flows(dirty)
                drained = self._allocate(scope) if scope else ()
            # A flow that settled to zero during the pass was removed
            # mid-allocation; its departure frees capacity, so re-run on
            # the links it vacated (same instant, usually empty).
            dirty = {}
            for flow in drained:
                for link in flow.path:
                    if link.flows:
                        dirty[link] = None

    def _merge_fresh(self) -> None:
        """Collapse identical fresh transfers into carrier flows.

        Flows started since the last pass with the same path and size are
        indistinguishable under max-min fairness: every future allocation
        hands them bitwise-identical rates, so their remaining-bytes and
        completion instants stay bitwise-identical forever.  Merging them
        into the earliest member (the *carrier*, ``weight`` = member
        count, ``fanout`` = per-member completion bookkeeping) makes every
        later pass and cohort pay per *class* instead of per transfer.
        Only never-allocated same-instant flows merge — anything already
        carrying a rate took part in a pass and stays solo.
        """
        fresh = self._fresh
        self._fresh = []
        now = self.engine.now
        flows = self._flows
        buckets: dict[tuple, list[Flow]] = {}
        for f in fresh:
            if (f.rate == 0.0 and f._sched is None and f.started_at == now
                    and f.weight == 1 and f in flows):
                key = (f.path, f.size)
                group = buckets.get(key)
                if group is None:
                    buckets[key] = [f]
                else:
                    group.append(f)
        for group in buckets.values():
            if len(group) < 2:
                continue
            carrier = group[0]
            carrier.weight = len(group)
            carrier.fanout = [(m._seq, m.done, m.label) for m in group]
            for m in group[1:]:
                del flows[m]
                for link in m.path:
                    del link.flows[m]
                # The route already counts the member in its weight.
                del m.route.flows[m]

    def _scope_flows(self, dirty: dict[Link, None]) -> list[Flow]:
        """Flows whose rates the pending membership changes could affect.

        Reference allocator: every active flow.  Incremental: the connected
        component(s) of the dirty links under the "shares a link with"
        relation, in global start order (``_seq``) so the progressive
        filling visits flows and links in exactly the order the reference
        allocator would, restricted to the component.
        """
        if self.allocator == "reference":
            return list(self._flows)
        self._scope_stamp += 1
        stamp = self._scope_stamp
        stack = list(dirty)
        for link in stack:
            link._mark = stamp
        found: list[Flow] = []
        append = found.append
        while stack:
            link = stack.pop()
            for flow in link.flows:
                if flow._mark != stamp:
                    flow._mark = stamp
                    append(flow)
                    for other in flow.path:
                        if other._mark != stamp:
                            other._mark = stamp
                            stack.append(other)
        found.sort(key=_SEQ)
        return found

    def _allocate(self, scope: list[Flow]) -> list[Flow]:
        """Flat progressive filling over ``scope`` (the oracles' pass)."""
        self.reallocations += 1
        self.realloc_flow_touches += len(scope)
        rates = self._fill(scope)
        return self._reschedule(scope, [rates.get(f, 0.0) for f in scope])

    def _reschedule(self, scope: list[Flow], rates: list[float]) -> list[Flow]:
        """Give each flow of ``scope`` (in ``_seq`` order) its new rate.

        Settles and reschedules only flows whose allocation changed; an
        undisturbed flow's completion entry stays valid, so the engine heap
        is not flooded with cancellations.  Returns flows that settled to
        zero and completed during the pass.
        """
        engine = self.engine
        drained: list[Flow] = []
        ff = self.fast_forward
        merge = self._merge
        cohorts: dict[float, _Cohort] = {}
        # Deferred byte contributions (see _settle_deferred) and drained
        # carriers' later-member completions, emitted at each member's seq
        # slot so every succeed/_schedule call lands in the exact global
        # order the one-flow-per-member stepped loop would produce.
        sink: dict[Link, list] = {}
        pending: list = []
        for flow, rate in zip(scope, rates):
            while pending and pending[0][0] < flow._seq:
                _s, done, size = _heappop(pending)
                done.succeed(size)
            if rate <= 0:
                raise SimulationError(
                    f"flow {flow.label!r} allocated zero rate — disconnected path?")
            if rate == flow.rate and flow._sched is not None:
                # Allocation unchanged: the scheduled completion is still
                # exact, and skipping the settle keeps remaining-bytes
                # arithmetic identical between allocators.
                continue
            if merge:
                self._settle_deferred(flow, sink)
            else:
                self._settle_flow(flow)
            flow.rate = rate
            self._cancel_sched(flow)
            if flow.remaining <= _flow_eps(flow):
                # Settled to zero at this very instant (its completion was
                # due now): complete it here rather than re-scheduling.
                self._remove(flow)
                flow.done.succeed(flow.size)
                fo = flow.fanout
                if fo is not None:
                    for seq, done, _label in fo[1:]:
                        _heappush(pending, (seq, done, flow.size))
                drained.append(flow)
                continue
            eta = flow.remaining / flow.rate
            if ff:
                # Flows completing at the bitwise-same instant share one
                # engine entry.  Keyed by the absolute time the engine
                # would file the entry under (now + eta, the same sum
                # _schedule computes), so members whose etas differ in the
                # last bit but land on the same heap key still coalesce in
                # scheduling order.
                at = engine.now + eta
                cohort = cohorts.get(at)
                if cohort is None:
                    cohort = _Cohort(self)
                    cohort.call = engine._schedule(eta, cohort.fire)
                    cohorts[at] = cohort
                cohort.members[flow] = None
                flow._sched = cohort
            else:
                flow._sched = engine._schedule(
                    eta, lambda f=flow: self._finish_flow(f))
        while pending:
            _s, done, size = _heappop(pending)
            done.succeed(size)
        if sink:
            self._fold_bytes(sink)
        return drained

    def _fill(self, scope: list[Flow]) -> dict[Flow, float]:
        """One progressive-filling pass: the step-by-step round loop."""
        unfrozen: dict[Flow, None] = dict.fromkeys(scope)
        residual: dict[Link, float] = {}
        link_unfrozen: dict[Link, dict[Flow, None]] = {}
        for f in unfrozen:
            for link in f.path:
                if link not in residual:
                    residual[link] = link.bandwidth
                link_unfrozen.setdefault(link, {})[f] = None

        rates: dict[Flow, float] = {}
        while unfrozen:
            # Bottleneck link: smallest per-flow fair share among links that
            # still carry unfrozen flows.
            bottleneck = None
            best_share = None
            for link, fset in link_unfrozen.items():
                if not fset:
                    continue
                share = residual[link] / len(fset)
                if best_share is None or share < best_share:
                    best_share = share
                    bottleneck = link
            if bottleneck is None:
                break  # all remaining flows have no constraining link
            frozen_now = list(link_unfrozen[bottleneck])
            for f in frozen_now:
                rates[f] = best_share
                unfrozen.pop(f, None)
                for link in f.path:
                    link_unfrozen[link].pop(f, None)
                    if link is not bottleneck:
                        residual[link] -= best_share
            residual[bottleneck] = 0.0
            link_unfrozen[bottleneck].clear()
        return rates

    # -- grouped filling --------------------------------------------------
    def _refill(self, dirty: dict[Link, None]) -> list[Flow]:
        """Grouped progressive filling over the dirty links' components.

        Works per route (path class) and *replays* the previous fill:
        every old round whose bottleneck link is clean is taken again in
        O(1) at its old ``(share, key)``, and progressive filling runs only
        for the links in play — the dirty ones, the links of routes no fill
        has decided yet, and the links of routes re-decided on the way —
        which compete with the replayed rounds through one heap.  Routes
        that no fill has decided yet put all their links in play, so a
        brand-new component is filled from scratch by the same loop.

        Exact versus :meth:`_fill`: a link's share is ``residual / count``
        with ``count`` the same per-transfer total the flat pass uses, and
        within one round every frozen transfer subtracts the same share,
        so grouping the subtractions by route (``weight`` times, once per
        crossing) leaves each link's subtraction chain — and its residual
        bits — unchanged.  The module docstring says why the replay is.
        """
        self._scope_stamp += 1
        stamp = self._scope_stamp
        work = [link for link in dirty if link.routes]
        if not work:
            return ()
        self.reallocations += 1
        for link in work:
            link._mark = stamp
        base = self._round_seq
        # Close the set of links in play: add the links of undecided
        # routes, and collect the fills that own every other route met.
        fills: dict[int, list] = {}
        i = 0
        while i < len(work):
            for route in work[i].routes:
                rnd = route.round
                if rnd is None:
                    for link in route.links:
                        if link._mark != stamp:
                            link._mark = stamp
                            work.append(link)
                else:
                    fills[id(rnd.owner)] = rnd.owner
            i += 1
        stream = _old_rounds(fills.values()) if fills else ()

        heap = []
        for link in work:
            if self._arm(link, stamp, base):
                heap.append((link._res / link._cnt, link._key, 0, link))
        heapq.heapify(heap)
        push = _heappush
        pop = _heappop
        fill: list[_Round] = []
        redecided: list[_Route] = []
        seq = base
        agg = 0
        n = len(stream)
        i = 0
        top = None
        while True:
            while heap:
                top = heap[0]
                link = top[3]
                if top[2] == link._ver and link._cnt:
                    break
                pop(heap)
            if i < n:
                rnd = stream[i]
                if not heap or rnd.share < top[0] or (
                        rnd.share == top[0] and rnd.key < top[1]):
                    i += 1
                    neck = rnd.link
                    if neck._mark == stamp:
                        # Superseded: its bottleneck is in play.  Its routes
                        # not yet re-decided will freeze elsewhere, so the
                        # links they cross leave the old sequence here.
                        for route in rnd.routes:
                            if route.weight and route.round.seq <= base:
                                for link in route.links:
                                    if (link._mark != stamp
                                            and self._arm(link, stamp, base)):
                                        push(heap, (link._res / link._cnt,
                                                    link._key, 0, link))
                        continue
                    # Replay: same share, same routes, now in this fill.
                    seq += 1
                    rnd.seq = seq
                    rnd.owner = fill
                    fill.append(rnd)
                    agg += rnd.agg
                    if rnd.touch == stamp:
                        share = rnd.share
                        for route in rnd.routes:
                            if route.touch != stamp:
                                continue
                            w = route.weight
                            for link in route.links:
                                if (link is neck or link._mark != stamp
                                        or not link._cnt):
                                    continue
                                r = link._res
                                for _ in range(route.path.count(link) * w
                                               if route.dups else w):
                                    r -= share
                                link._res = r
                                cnt = link._cnt - w
                                link._cnt = cnt
                                if cnt:
                                    ver = link._ver + 1
                                    link._ver = ver
                                    push(heap, (r / cnt, link._key, ver, link))
                    continue
            elif not heap:
                break
            # A link in play is the bottleneck: re-decide its routes.
            share, key, _v, neck = pop(heap)
            seq += 1
            rnd = _Round(share, key, neck, fill, seq)
            fill.append(rnd)
            members = rnd.routes
            changed: dict[Link, None] = {}
            for route in neck.routes:
                old = route.round
                if old is not None and old.seq > base:
                    continue  # already frozen in this fill
                route.round = rnd
                members.append(route)
                w = route.weight
                if w > 1:
                    rnd.agg += w
                for link in route.links:
                    if link is neck:
                        continue
                    if link._mark != stamp:
                        if len(link.routes) == 1:
                            # Its one route just froze: nothing left to
                            # compete with.
                            link._mark = stamp
                            link._cnt = 0
                            continue
                        # Counts this route as frozen in this round.
                        self._arm(link, stamp, base)
                    elif link._cnt:
                        r = link._res
                        for _ in range(route.path.count(link) * w
                                       if route.dups else w):
                            r -= share
                        link._res = r
                        link._cnt -= w
                    else:
                        continue
                    changed[link] = None
            rnd.live = len(members)
            agg += rnd.agg
            redecided += members
            neck._cnt = 0
            for link in changed:
                cnt = link._cnt
                if cnt:
                    ver = link._ver + 1
                    link._ver = ver
                    push(heap, (link._res / cnt, link._key, ver, link))
        self._round_seq = seq
        self.flows_aggregated += agg
        self.realloc_flow_touches += n + len(redecided)

        flows: list[Flow] = []
        for route in redecided:
            share = route.round.share
            if share != route.share:
                route.share = share
                flows += route.flows
            else:
                for flow in route.flows:
                    if flow._sched is None:
                        flows.append(flow)
        if not flows:
            return ()
        flows.sort(key=_SEQ)
        return self._reschedule(flows, [f.route.share for f in flows])

    @staticmethod
    def _arm(link: Link, stamp: int, base: int) -> bool:
        """Bring ``link`` into play at this point of the current fill.

        Until now the link was clean, so its state is the replayed rounds':
        the residual is its bandwidth minus, round by round, the shares of
        its routes frozen so far in this fill (all replayed, at their old
        shares).  Returns whether unfrozen weight remains to compete.
        """
        link._mark = stamp
        link._ver = 0
        routes = link.routes
        if len(routes) == 1:
            for route in routes:
                w = route.weight
                if link.bandwidth / w > min(
                        [other.bandwidth for other in route.links]) / w:
                    # Never the bottleneck: its one route's weight is also
                    # counted on a tighter link whose residual only falls.
                    link._cnt = 0
                    return False
        cnt = 0
        key = -1
        frozen = None
        for route in routes:
            k = (next(iter(route.flows))._seq * _KEY_STRIDE
                 + route.links.index(link))
            if key < 0 or k < key:
                key = k
            rnd = route.round
            if rnd is not None and rnd.seq > base:
                if frozen is None:
                    frozen = []
                frozen.append((rnd.seq, rnd.share,
                               route.path.count(link) * route.weight
                               if route.dups else route.weight))
            else:
                cnt += route.weight
                route.touch = stamp
                if rnd is not None:
                    rnd.touch = stamp
        res = link.bandwidth
        if frozen is not None:
            frozen.sort(key=_FIRST)
            for _seq, share, times in frozen:
                for _ in range(times):
                    res -= share
        link._res = res
        link._cnt = cnt
        link._key = key
        return cnt > 0


def _old_rounds(fills) -> list[_Round]:
    """The rounds of ``fills`` that still freeze a live route, merged by
    ``(share, key)``.

    Each fill's own order is kept (its rounds ran in that order); across
    fills — disjoint link sets — the merge takes the smaller head, so the
    clean link with the smallest ``(share, key)`` always comes first.
    Rounds left with no live route are skipped without touching them.
    """
    lists = []
    for fill in fills:
        valid = [rnd for rnd in fill if rnd.live]
        if valid:
            lists.append(valid)
    if len(lists) == 1:
        return lists[0]
    heads = [(lst[0].share, lst[0].key, j, 0) for j, lst in enumerate(lists)]
    heapq.heapify(heads)
    merged = []
    while heads:
        _s, _k, j, pos = heads[0]
        lst = lists[j]
        merged.append(lst[pos])
        pos += 1
        if pos < len(lst):
            nxt = lst[pos]
            heapq.heapreplace(heads, (nxt.share, nxt.key, j, pos))
        else:
            _heappop(heads)
    return merged
