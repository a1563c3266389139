"""Experiment driver: run any algorithm at any configuration, sweep, record.

The per-figure benchmarks are thin loops over :func:`run_matmul` /
:func:`sweep`; this module owns algorithm dispatch, block-size defaults
("optimum block sizes were chosen empirically", §4 — here a simple
size-scaled rule), and the result records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..baselines.cannon import cannon_multiply
from ..baselines.fox import fox_multiply
from ..baselines.pdgemm import pdgemm_multiply
from ..baselines.summa import summa_multiply
from ..core.api import srumma_multiply
from ..core.hierarchical import hierarchical_multiply
from ..core.srumma import SrummaOptions
from ..machines.spec import MachineSpec

__all__ = ["ALGORITHMS", "MatmulPoint", "run_matmul", "sweep", "default_nb"]

ALGORITHMS = ("srumma", "hierarchical", "pdgemm", "summa", "cannon", "fox")


@dataclass
class MatmulPoint:
    """One measured configuration."""

    algorithm: str
    platform: str
    m: int
    n: int
    k: int
    nranks: int
    gflops: float
    elapsed: float
    transa: bool = False
    transb: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        t = ("T" if self.transa else "N") + ("T" if self.transb else "N")
        return (f"{self.algorithm}/{self.platform} {self.m}x{self.n}x{self.k} "
                f"{t} P={self.nranks}")


def default_nb(n: int, nranks: int) -> int:
    """pdgemm/SUMMA panel size: 'chosen empirically' in the paper; here a
    rule that keeps both the panel count and the per-message size sane."""
    q = max(1, int(math.isqrt(nranks)))
    # Aim for ~2 panels per owner block, floored at 32, capped at 256.
    nb = max(32, min(256, n // (2 * q)))
    return max(1, min(nb, n))


def run_matmul(algorithm: str, spec: MachineSpec, nranks: int,
               m: int, n: Optional[int] = None, k: Optional[int] = None,
               transa: bool = False, transb: bool = False,
               payload: str = "synthetic", verify: bool = False,
               options: Optional[SrummaOptions] = None,
               nb: Optional[int] = None, seed: int = 0,
               interference=None, faults=None) -> MatmulPoint:
    """Run one algorithm at one configuration; returns a :class:`MatmulPoint`.

    ``n``/``k`` default to ``m`` (square).  Benchmarks default to synthetic
    payload (identical schedule, no real data — tested elsewhere to match
    real-payload timing exactly).
    """
    n = m if n is None else n
    k = m if k is None else k
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; know {ALGORITHMS}")
    if (transa or transb) and algorithm not in ("srumma", "pdgemm"):
        raise ValueError(f"{algorithm} supports only the NN case")
    common = dict(payload=payload, verify=verify, seed=seed,
                  interference=interference, faults=faults)
    panel = nb if nb is not None else default_nb(n, nranks)
    # The multiply functions are looked up as module globals at call time,
    # so wrappers installed on this module see every call.
    if algorithm == "srumma":
        res = srumma_multiply(spec, nranks, m, n, k, transa=transa,
                              transb=transb, options=options, **common)
        extra = {"grid": res.grid}
    elif algorithm == "hierarchical":
        res = hierarchical_multiply(spec, nranks, m, n, k, kb=nb, **common)
        extra = {"node_grid": res.grid, "kb": res.kb}
    elif algorithm == "pdgemm":
        res = pdgemm_multiply(spec, nranks, m, n, k, transa=transa,
                              transb=transb, nb=panel, **common)
        extra = {"grid": res.grid, "nb": res.kb}
    elif algorithm == "summa":
        res = summa_multiply(spec, nranks, m, n, k, kb=panel, **common)
        extra = {"grid": res.grid, "kb": res.kb}
    elif algorithm == "cannon":
        res = cannon_multiply(spec, nranks, m, n, k, **common)
        extra = {"grid": res.grid}
    else:
        res = fox_multiply(spec, nranks, m, n, k, **common)
        extra = {"grid": res.grid}

    # Detection/watchdog runs carry their health counters with the point,
    # so sweeps and cached replays can report suspicion/fence/stall
    # activity without re-simulating.
    if faults is not None and (faults.detector is not None
                               or faults.watchdog_grace is not None):
        extra["health"] = dict(res.run.tracer.health())

    return MatmulPoint(
        algorithm=algorithm, platform=spec.name, m=m, n=n, k=k,
        nranks=nranks, gflops=res.gflops, elapsed=res.elapsed,
        transa=transa, transb=transb, extra=extra,
    )


def sweep(algorithms: Sequence[str], spec: MachineSpec,
          sizes: Iterable[int], nranks: int, jobs: Optional[int] = 1,
          cache=None, verbose: bool = False, policy=None, report=None,
          **kwargs: Any) -> list[MatmulPoint]:
    """Cross product of algorithms x square sizes at one rank count.

    ``jobs`` fans the points across worker processes (``None``/``0`` = all
    CPU cores); the default ``1`` keeps the in-process serial path.
    ``cache`` is an optional :class:`~repro.bench.cache.ResultCache`:
    already-simulated points are served from it and fresh ones written
    back (``None`` = the exact uncached path).  ``policy`` is an optional
    :class:`~repro.bench.parallel.ExecutionPolicy` (per-point error
    handling, the durable resume journal, chaos injection) and ``report``
    an optional :class:`~repro.bench.parallel.SweepReport` accumulating
    outcomes.  The result order — size-major, algorithm-minor — and every
    field of every point are identical for any ``jobs`` value and for
    cached vs uncached execution (each point's simulation is seeded and
    self-contained).
    """
    from .parallel import PointSpec, run_points

    specs = [PointSpec(algorithm=alg, machine=spec, nranks=nranks, m=size,
                       **kwargs)
             for size in sizes for alg in algorithms]
    return run_points(specs, jobs=jobs, cache=cache, verbose=verbose,
                      policy=policy, report=report)
