"""Per-rank time accounting and named counters.

The tracer answers "where did the time go" questions the paper's analysis
asks: how much of each rank's wall-clock went to computing, to waiting on
communication, to copying buffers.  The overlap benchmarks and the
ablation reports are built on these buckets.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Tracer", "TimeBuckets"]

# Canonical accounting buckets; anything else is accepted but not summarised.
BUCKETS = ("compute", "comm_wait", "copy", "mpi_overhead", "sync_wait")


@dataclass
class TimeBuckets:
    """Accumulated seconds per activity for one rank."""

    compute: float = 0.0
    comm_wait: float = 0.0
    copy: float = 0.0
    mpi_overhead: float = 0.0
    sync_wait: float = 0.0
    other: float = 0.0

    def total(self) -> float:
        return (self.compute + self.comm_wait + self.copy
                + self.mpi_overhead + self.sync_wait + self.other)

    def add(self, bucket: str, dt: float) -> None:
        if bucket in BUCKETS:
            setattr(self, bucket, getattr(self, bucket) + dt)
        else:
            self.other += dt


class Tracer:
    """Collects per-rank accounting buckets and named counters."""

    def __init__(self):
        self._buckets: dict[int, TimeBuckets] = defaultdict(TimeBuckets)
        self.counters: dict[str, int] = defaultdict(int)

    # -- accounting --------------------------------------------------------
    def account(self, rank: int, bucket: str, dt: float) -> None:
        """Charge ``dt`` seconds of ``bucket`` activity to ``rank``."""
        if dt < 0:
            raise ValueError(f"negative accounting interval {dt}")
        self._buckets[rank].add(bucket, dt)

    def bump(self, counter: str, n: int = 1) -> None:
        """Increment a named counter (messages sent, gets issued, ...)."""
        self.counters[counter] += n

    def health(self) -> dict[str, int]:
        """Health counters: the ``fault:*`` namespace plus the watchdog's
        ``engine:stalls_diagnosed``.

        Populated only when fault machinery is active: injected get
        failures, retries, reliable-protocol fallbacks, window
        activations, and — with a failure detector installed —
        suspicion/confirmation transitions, epoch-fence rejections, and
        watchdog-diagnosed stalls.  The always-on engine-mode counters
        (``engine:ff_jumps`` etc.) stay out, so an empty dict still
        certifies a run saw no fault machinery at all.
        """
        out = {name[len("fault:"):]: val
               for name, val in self.counters.items()
               if name.startswith("fault:")}
        if "engine:stalls_diagnosed" in self.counters:
            out["stalls_diagnosed"] = self.counters["engine:stalls_diagnosed"]
        return out

    def buckets(self, rank: int) -> TimeBuckets:
        return self._buckets[rank]

    def all_buckets(self) -> dict[int, TimeBuckets]:
        return dict(self._buckets)

    def total(self, bucket: str) -> float:
        """Sum of one bucket across all ranks."""
        return sum(getattr(b, bucket) for b in self._buckets.values())

    def summary(self) -> dict[str, float]:
        """Machine-wide totals per bucket, plus counters."""
        out: dict[str, float] = {b: self.total(b) for b in BUCKETS}
        out["other"] = sum(b.other for b in self._buckets.values())
        for name, val in self.counters.items():
            out[f"count:{name}"] = val
        return out
