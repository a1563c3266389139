"""Cannon's algorithm — the message-passing reference point (paper §2).

Classic 1969 formulation on a square ``s x s`` process grid:

1. *Skew*: block ``A_ij`` shifts left by ``i`` positions, ``B_ij`` up by
   ``j`` positions (so every rank starts holding a matching pair).
2. ``s`` compute-shift rounds: multiply the held blocks into ``C_ij``, then
   shift A one step left and B one step up (ring ``sendrecv``).

Every shift is sender-receiver synchronised — the coordination SRUMMA's
one-sided gets eliminate (§2: "unlike Cannon's algorithm, where skewed
blocks ... are shifted using message-passing to the logically neighboring
processors").

Non-divisible dimensions are handled by padding each block to the nominal
``ceil`` size with zeros (padded products contribute nothing); this is also
what keeps all shifted blocks the same shape.  Square grids only —
rectangular grids require the generalised (BMR) variant, which the paper
does not use.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional

import numpy as np

from ..comm.base import RankContext
from ..core.api import MultiplyResult, run_multiply

__all__ = ["cannon_rank", "cannon_multiply"]


def exchange(ctx: RankContext, block: Optional[np.ndarray], dst: int,
             src: int, tag: int, nbytes: float) -> Generator:
    """Send ``block`` to ``dst`` while receiving its replacement from
    ``src`` — one ring-shift step (generator).  Returns the received
    block, None in a synthetic run."""
    new = None if block is None else np.empty_like(block)
    yield from ctx.mpi.sendrecv(dst, block, src, new, send_tag=tag,
                                recv_tag=tag, nbytes=nbytes)
    return new


def cannon_rank(ctx: RankContext, s: int, m: int, n: int, k: int,
                a_block: Optional[np.ndarray], b_block: Optional[np.ndarray],
                c_block: Optional[np.ndarray]) -> Generator:
    """Per-rank Cannon on an ``s x s`` grid.

    ``a_block``/``b_block`` are this rank's (padded) blocks; ``c_block``
    accumulates the result.  Pass None blocks for a synthetic run.
    """
    if ctx.rank >= s * s:
        return None  # idle rank outside the grid
    i, j = divmod(ctx.rank, s)
    real = a_block is not None
    bm = -(-m // s)  # padded block sizes
    bk = -(-k // s)
    bn = -(-n // s)

    def grid_rank(gi: int, gj: int) -> int:
        return (gi % s) * s + (gj % s)

    a_cur = a_block
    b_cur = b_block

    def shift(a_steps: int, b_steps: int, tag: int):
        """Shift A left by a_steps and B up by b_steps (generators)."""
        nonlocal a_cur, b_cur
        if a_steps % s:
            a_cur = yield from exchange(
                ctx, a_cur, grid_rank(i, j - a_steps),
                grid_rank(i, j + a_steps), tag, bm * bk * 8.0)
        if b_steps % s:
            b_cur = yield from exchange(
                ctx, b_cur, grid_rank(i - b_steps, j),
                grid_rank(i + b_steps, j), tag + 1, bk * bn * 8.0)

    # Initial skew: A_ij left by i, B_ij up by j.
    yield from shift(i, j, tag=10)

    for step in range(s):
        if real:
            yield from ctx.dgemm(a_cur, b_cur, c_block)
        else:
            yield from ctx.dgemm_flops(bm, bn, bk)
        if step < s - 1:
            yield from shift(1, 1, tag=100 + 2 * step)

    # Un-skew so blocks return home (keeps A/B logically unchanged).
    yield from shift(-i, -j, tag=20)
    return None


def _padded_block(x: np.ndarray, i: int, j: int, h: int, w: int) -> np.ndarray:
    """Block ``(i, j)`` of ``x`` cut in ``h x w`` tiles, zero-padded to
    ``h x w`` (padded products contribute nothing)."""
    block = np.zeros((h, w))
    part = x[i * h:(i + 1) * h, j * w:(j + 1) * w]
    block[:part.shape[0], :part.shape[1]] = part
    return block


def square_grid_multiply(name: str, kernel: Callable[..., Generator], spec,
                         nranks: int, m: int, n: int, k: int,
                         s: Optional[int], **run_args) -> MultiplyResult:
    """Front door of the ``s x s`` grid algorithms (Cannon, Fox).

    ``s`` defaults to ``floor(sqrt(nranks))`` (ranks beyond ``s*s``
    idle).  Every rank holds one zero-padded ``ceil`` block of A, B and C,
    so all blocks have one shape; C is produced in a padded buffer whose
    leading ``m x n`` corner is the result.  ``kernel(ctx, s, m, n, k,
    a_block, b_block, c_block)`` is the per-rank algorithm.
    """
    if s is None:
        s = math.isqrt(nranks)
    bm, bk, bn = -(-m // s), -(-k // s), -(-n // s)

    def setup(ctx, ops):
        blocks = (None, None, None)
        if ops is not None and ctx.rank < s * s:
            i, j = divmod(ctx.rank, s)
            blocks = (_padded_block(ops.a, i, j, bm, bk),
                      _padded_block(ops.b, i, j, bk, bn),
                      ops.c[i * bm:(i + 1) * bm, j * bn:(j + 1) * bn])
        return kernel(ctx, s, m, n, k, *blocks)

    return run_multiply(name, spec, nranks, m, n, k, (s, s), setup,
                        c_shape=(s * bm, s * bn), **run_args)


def cannon_multiply(spec, nranks: int, m: int, n: int, k: int,
                    s: Optional[int] = None, payload: str = "real",
                    verify: bool = True, seed: int = 0,
                    interference=None, faults=None) -> MultiplyResult:
    """Run ``C = A @ B`` with Cannon's algorithm on a simulated machine.

    ``s`` is the grid side; defaults to ``floor(sqrt(nranks))`` (ranks beyond
    ``s*s`` idle).  Only the untransposed case is supported.
    """
    return square_grid_multiply("Cannon", cannon_rank, spec, nranks, m, n, k,
                                s, payload=payload, verify=verify, seed=seed,
                                interference=interference, faults=faults)
