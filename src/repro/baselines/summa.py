"""SUMMA (van de Geijn & Watts 1997) — the algorithm inside pdgemm.

``C (m x n)`` is block-distributed on a ``p x q`` grid.  The inner dimension
is processed in panels of width ``kb``:

- the grid *column* owning panel ``t`` of A broadcasts its local
  ``(local_m x kb)`` piece along each process row;
- the grid *row* owning panel ``t`` of B broadcasts its ``(kb x local_n)``
  piece along each process column;
- every rank runs the rank-``kb`` update ``C_loc += A_pan @ B_pan``.

All data movement is two-sided MPI broadcast — the sender-receiver
synchronisation SRUMMA's one-sided gets avoid; with panels above the eager
threshold each broadcast hop is a rendezvous (no overlap).

This module implements the plain block-distributed variant used for the
SUMMA-vs-SRUMMA comparisons; the block-cyclic production variant is
:mod:`repro.baselines.pdgemm`.  Untransposed case only (the paper's SUMMA
comparisons are untransposed; transpose handling lives in pdgemm via
redistribution).
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from ..comm.base import RankContext
from ..core.api import MultiplyResult, run_multiply
from ..distarray.distribution import Block2D, choose_grid

__all__ = ["summa_rank", "summa_multiply", "k_panels", "bcast_panels"]

DEFAULT_KB = 64


def k_panels(dist_a: Block2D, dist_b: Block2D, kb: int) -> list[tuple[int, int]]:
    """Panel intervals: ownership-aligned cuts subdivided to width <= kb."""
    cuts = sorted(set(dist_a.col_breakpoints()) | set(dist_b.row_breakpoints()))
    panels = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        start = lo
        while start < hi:
            stop = min(start + kb, hi)
            panels.append((start, stop))
            start = stop
    return panels


def bcast_panels(ctx: RankContext, dist_a: Block2D, dist_b: Block2D,
                 coords: tuple[int, int], t: int, k_lo: int, k_hi: int,
                 groups: tuple[list[int], list[int]],
                 a_local: Optional[np.ndarray], b_local: Optional[np.ndarray],
                 tag_base: int,
                 leaders: Optional[Sequence[int]] = None) -> Generator:
    """Broadcast k-panel ``t`` (``[k_lo, k_hi)``): the owner column's piece
    of A along this rank's grid row, the owner row's piece of B along its
    grid column (generator).

    ``groups`` are this rank's (row, column) broadcast groups;
    ``a_local``/``b_local`` its blocks, None in a synthetic run.
    ``leaders`` maps each grid cell to the rank that plays it (the
    hierarchical variant's domain leaders; default: the cell's own rank).
    Returns ``(a_pan, b_pan)``, both None in a synthetic run.
    """
    pi, pj = coords
    r0, r1 = dist_a.row_range(pi)
    c0, c1 = dist_b.col_range(pj)
    my_m = r1 - r0
    my_n = c1 - c0
    kk = k_hi - k_lo
    a_owner_col = dist_a.owner_of_col(k_lo)
    a_root = dist_a.rank_of(pi, a_owner_col)
    b_owner_row = dist_b.owner_of_row(k_lo)
    b_root = dist_b.rank_of(b_owner_row, pj)
    if leaders is not None:
        a_root, b_root = leaders[a_root], leaders[b_root]
    a_pan = b_pan = None
    if a_local is not None:
        a_pan = np.empty((my_m, kk))
        if ctx.rank == a_root and my_m:
            A0, _ = dist_a.col_range(a_owner_col)
            a_pan[...] = a_local[:, k_lo - A0:k_hi - A0]
        b_pan = np.empty((kk, my_n))
        if ctx.rank == b_root and my_n:
            B0, _ = dist_b.row_range(b_owner_row)
            b_pan[...] = b_local[k_lo - B0:k_hi - B0, :]
    if my_m:
        yield from ctx.mpi.bcast(a_pan, root=a_root, group=groups[0],
                                 tag=tag_base + 2 * t, nbytes=my_m * kk * 8.0)
    if my_n:
        yield from ctx.mpi.bcast(b_pan, root=b_root, group=groups[1],
                                 tag=tag_base + 1 + 2 * t,
                                 nbytes=kk * my_n * 8.0)
    return a_pan, b_pan


def summa_rank(ctx: RankContext, dist_a: Block2D, dist_b: Block2D,
               dist_c: Block2D, kb: int,
               a_local: Optional[np.ndarray], b_local: Optional[np.ndarray],
               c_local: Optional[np.ndarray]) -> Generator:
    """Per-rank SUMMA.  Pass None locals for a synthetic run."""
    p, q = dist_c.p, dist_c.q
    if ctx.rank >= p * q:
        return None
    pi, pj = dist_c.coords_of(ctx.rank)
    real = c_local is not None
    r0, r1 = dist_c.row_range(pi)
    c0, c1 = dist_c.col_range(pj)
    my_m = r1 - r0
    my_n = c1 - c0
    groups = ([dist_c.rank_of(pi, j) for j in range(q)],
              [dist_c.rank_of(i, pj) for i in range(p)])

    for t, (k_lo, k_hi) in enumerate(k_panels(dist_a, dist_b, kb)):
        a_pan, b_pan = yield from bcast_panels(
            ctx, dist_a, dist_b, (pi, pj), t, k_lo, k_hi, groups,
            a_local, b_local, tag_base=3_000_000)
        # --- local rank-kb update ------------------------------------------------
        if my_m and my_n:
            if real:
                yield from ctx.dgemm(a_pan, b_pan, c_local)
            else:
                yield from ctx.dgemm_flops(my_m, my_n, k_hi - k_lo)
    return None


def summa_multiply(spec, nranks: int, m: int, n: int, k: int,
                   p: Optional[int] = None, q: Optional[int] = None,
                   kb: int = DEFAULT_KB, payload: str = "real",
                   verify: bool = True, seed: int = 0,
                   interference=None, faults=None) -> MultiplyResult:
    """Run ``C = A @ B`` with SUMMA on a simulated machine."""
    if kb < 1:
        raise ValueError(f"panel width kb must be >= 1, got {kb}")
    if p is None or q is None:
        p, q = choose_grid(nranks)
    dist_a = Block2D(m, k, p, q)
    dist_b = Block2D(k, n, p, q)
    dist_c = Block2D(m, n, p, q)

    def setup(ctx, ops):
        blocks = (None, None, None)
        if ops is not None and ctx.rank < p * q:
            pi, pj = dist_c.coords_of(ctx.rank)
            blocks = (ops.a[dist_a.block_slices(pi, pj)],
                      ops.b[dist_b.block_slices(pi, pj)],
                      ops.c[dist_c.block_slices(pi, pj)])
        return summa_rank(ctx, dist_a, dist_b, dist_c, kb, *blocks)

    return run_multiply("SUMMA", spec, nranks, m, n, k, (p, q), setup,
                        payload=payload, verify=verify, seed=seed,
                        interference=interference, faults=faults, kb=kb)
