"""Fox's algorithm (BMR: broadcast-multiply-roll) — an additional baseline.

The other classical message-passing contender the paper cites (§1, refs
[3, 4]).  On a square ``s x s`` grid, step ``l``:

1. the rank holding diagonal block ``A_{i,(i+l) mod s}`` broadcasts it along
   its process row;
2. every rank multiplies the broadcast block with its current B block into
   ``C_ij``;
3. B blocks roll upward one position (ring sendrecv).

Compared with Cannon: same O(s) steps and data volume, but the A movement
is a one-to-many broadcast per row instead of a shift, so each step costs a
``log s`` tree of sends — which is exactly why SUMMA/pdgemm (its panel
generalisation) behaves the way it does.  Untransposed square-grid case, as
in the classical formulation; non-divisible sizes handled by zero padding.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..comm.base import RankContext
from ..core.api import MultiplyResult
from .cannon import exchange, square_grid_multiply

__all__ = ["fox_rank", "fox_multiply"]


def fox_rank(ctx: RankContext, s: int, m: int, n: int, k: int,
             a_block: Optional[np.ndarray], b_block: Optional[np.ndarray],
             c_block: Optional[np.ndarray]) -> Generator:
    """Per-rank Fox/BMR on an ``s x s`` grid (None blocks = synthetic)."""
    if ctx.rank >= s * s:
        return None
    i, j = divmod(ctx.rank, s)
    real = a_block is not None
    bm = -(-m // s)
    bk = -(-k // s)
    bn = -(-n // s)
    row_group = [i * s + jj for jj in range(s)]

    b_cur = b_block
    a_recv = np.empty((bm, bk)) if real else None

    for step in range(s):
        # 1. Broadcast A_{i, (i+step) mod s} along the process row.
        root = i * s + (i + step) % s
        a_pan = a_block if ctx.rank == root else a_recv
        yield from ctx.mpi.bcast(a_pan, root=root, group=row_group,
                                 tag=7_000_000 + step, nbytes=bm * bk * 8.0)
        # 2. Multiply.
        if real:
            yield from ctx.dgemm(a_pan, b_cur, c_block)
        else:
            yield from ctx.dgemm_flops(bm, bn, bk)
        # 3. Roll B upward.
        if step < s - 1:
            b_cur = yield from exchange(
                ctx, b_cur, ((i - 1) % s) * s + j, ((i + 1) % s) * s + j,
                7_500_000 + step, bk * bn * 8.0)
    return None


def fox_multiply(spec, nranks: int, m: int, n: int, k: int,
                 s: Optional[int] = None, payload: str = "real",
                 verify: bool = True, seed: int = 0,
                 interference=None, faults=None) -> MultiplyResult:
    """Run ``C = A @ B`` with Fox's algorithm on a simulated machine."""
    return square_grid_multiply("Fox", fox_rank, spec, nranks, m, n, k, s,
                                payload=payload, verify=verify, seed=seed,
                                interference=interference, faults=faults)
