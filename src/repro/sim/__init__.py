"""Discrete-event simulation substrate.

Public surface:

- :class:`~repro.sim.engine.Engine`, :class:`~repro.sim.engine.Event`,
  :class:`~repro.sim.engine.Timeout`, :class:`~repro.sim.engine.Process` —
  the event loop and awaitables.
- :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Mailbox`,
  :class:`~repro.sim.resources.TokenBucket` — hardware-ish shared resources.
- :class:`~repro.sim.network.FlowNetwork`, :class:`~repro.sim.network.Link` —
  max-min fair flow-level network.
- :class:`~repro.sim.cluster.Machine`, :class:`~repro.sim.cluster.Node` —
  a full machine instance built from a :class:`~repro.machines.spec.MachineSpec`.
- :class:`~repro.sim.trace.Tracer` — time accounting and counters.
- :class:`~repro.sim.faults.FaultPlan`,
  :class:`~repro.sim.faults.FaultInjector` — deterministic fault injection
  (brownouts, outages, stragglers, crashes, partitions, rejoins, seeded
  RMA get failures) plus the heartbeat failure detector.
- :class:`~repro.sim.membership.Membership` — the cluster's imperfect
  failure knowledge (suspicion, confirmation, epochs) when a detector is
  configured.
"""

from .engine import (
    AllOf, AnyOf, Engine, Event, Interrupt, Process, ProgressWatchdog,
    SimulationError, StallError, Timeout,
)
from .network import Flow, FlowNetwork, Link
from .resources import Mailbox, Resource, TokenBucket
from .cluster import Machine, Node
from .interference import InterferencePattern, spawn_daemons
from .faults import (
    DetectorConfig,
    FaultInjector,
    FaultPlan,
    LinkBrownout,
    NetworkPartition,
    NicOutage,
    NodeCrash,
    NodeRejoin,
    StragglerWindow,
    install_faults,
    standard_degraded_plan,
    unit_uniform,
)
from .membership import Membership
from .trace import TimeBuckets, Tracer

__all__ = [
    "AllOf", "AnyOf", "Engine", "Event", "Interrupt", "Process",
    "ProgressWatchdog", "SimulationError", "StallError", "Timeout",
    "Flow", "FlowNetwork", "Link",
    "Mailbox", "Resource", "TokenBucket",
    "Machine", "Node",
    "InterferencePattern", "spawn_daemons",
    "DetectorConfig", "FaultInjector", "FaultPlan", "LinkBrownout",
    "NetworkPartition", "NicOutage", "NodeCrash", "NodeRejoin",
    "StragglerWindow", "install_faults", "standard_degraded_plan",
    "unit_uniform",
    "Membership",
    "TimeBuckets", "Tracer",
]
