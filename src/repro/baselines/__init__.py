"""Baseline parallel matrix multiplication algorithms.

- :mod:`repro.baselines.cannon` — Cannon's algorithm (the algorithmic
  reference point, §2);
- :mod:`repro.baselines.fox` — Fox's broadcast-multiply-roll algorithm;
- :mod:`repro.baselines.summa` — SUMMA on the plain block distribution;
- :mod:`repro.baselines.pdgemm` — the ScaLAPACK/PBLAS pdgemm stand-in:
  block-cyclic SUMMA with pdtran-style transpose redistribution (the
  paper's comparison target throughout §4).
"""

from .cannon import cannon_multiply, cannon_rank
from .fox import fox_multiply, fox_rank
from .pdgemm import DEFAULT_NB, pdgemm_multiply, pdgemm_rank, pdtran_rank
from .summa import summa_multiply, summa_rank

__all__ = [
    "cannon_multiply", "cannon_rank",
    "fox_multiply", "fox_rank",
    "DEFAULT_NB", "pdgemm_multiply", "pdgemm_rank", "pdtran_rank",
    "summa_multiply", "summa_rank",
]
