"""SRUMMA reproduction: shared/remote-memory parallel matrix multiplication.

Reproduces Krishnan & Nieplocha, *SRUMMA: A Matrix Multiplication Algorithm
Suitable for Clusters and Scalable Shared Memory Systems* (IPDPS 2004) on a
deterministic discrete-event cluster simulator.

Quick start::

    from repro import srumma_multiply
    from repro.machines import LINUX_MYRINET

    res = srumma_multiply(LINUX_MYRINET, nranks=16, m=512, n=512, k=512)
    print(f"{res.gflops:.1f} GFLOP/s, max error {res.max_error:.2e}")

Package map:

- :mod:`repro.core` — SRUMMA itself (tasks, schedule, algorithm, API);
- :mod:`repro.baselines` — Cannon, SUMMA, and the pdgemm stand-in;
- :mod:`repro.comm` — ARMCI (one-sided RMA), MPI, shared-memory protocols;
- :mod:`repro.distarray` — distributions and Global Arrays-style matrices;
- :mod:`repro.sim` — the discrete-event engine, flow network, machines;
- :mod:`repro.machines` — calibrated models of the paper's four platforms;
- :mod:`repro.model` — the §2.1 analytic efficiency model;
- :mod:`repro.bench` — experiment drivers and microbenchmarks.
"""

from .core import (
    MultiplyResult,
    ScheduleOptions,
    SrummaOptions,
    hierarchical_multiply,
    srumma_multiply,
)
from .comm import run_parallel

__version__ = "1.0.0"

__all__ = [
    "MultiplyResult",
    "ScheduleOptions",
    "SrummaOptions",
    "hierarchical_multiply",
    "srumma_multiply",
    "run_parallel",
    "__version__",
]
