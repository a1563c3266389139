"""pdgemm stand-in: block-cyclic SUMMA, the PBLAS/ScaLAPACK algorithm.

This is the comparison target of the paper's entire evaluation (§4).
Faithful to the production routine in the ways that matter for performance
shape:

- **block-cyclic layout** (:class:`~repro.distarray.distribution.BlockCyclic2D`)
  with square ``nb x nb`` tiles, local tiles packed into one dense array;
- **SUMMA communication structure**: for each k-tile, the owning grid column
  broadcasts its piece of the A panel along process rows and the owning grid
  row broadcasts its piece of the B panel along process columns (binomial
  trees over two-sided MPI — eager/rendezvous protocol costs included);
- **transpose cases via redistribution**: ``C = A^T B`` first materialises
  ``A^T`` in the target layout with an explicit tile-by-tile transpose
  exchange (the role of ``pdtran``), then runs the untransposed kernel.
  This is why pdgemm's transpose cases trail its NN case in Table 1.

Synthetic payload mode mirrors the exact message/compute schedule byte-for-
byte without real numpy data.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from ..comm.base import RankContext
from ..core.api import MultiplyResult, run_multiply
from ..distarray.distribution import BlockCyclic2D, choose_grid

__all__ = ["pdgemm_rank", "pdgemm_multiply", "DEFAULT_NB"]

DEFAULT_NB = 64


# --------------------------------------------------------------------------
# local packed-layout helpers
# --------------------------------------------------------------------------

def scatter_local(dist: BlockCyclic2D, rank: int,
                  global_matrix: np.ndarray) -> np.ndarray:
    """This rank's packed local array of a global matrix."""
    pi, pj = dist.coords_of(rank)
    rows = dist.global_rows_of(pi)
    cols = dist.global_cols_of(pj)
    return global_matrix[np.ix_(rows, cols)].copy() if rows and cols else \
        np.zeros((len(rows), len(cols)))


def gather_global(dist: BlockCyclic2D,
                  locals_by_rank: Sequence[Optional[np.ndarray]]) -> np.ndarray:
    """Reassemble the global matrix from packed local arrays, indexed by
    rank (None for ranks that hold none)."""
    out = np.zeros((dist.m, dist.n))
    for rank, loc in enumerate(locals_by_rank):
        if loc is None:
            continue
        pi, pj = dist.coords_of(rank)
        rows = dist.global_rows_of(pi)
        cols = dist.global_cols_of(pj)
        if rows and cols:
            out[np.ix_(rows, cols)] = loc
    return out


def _local_col_offset(dist: BlockCyclic2D, pj: int, tile_col: int) -> int:
    """Packed-column offset of tile column ``tile_col`` on grid column pj."""
    off = 0
    for tj in dist.local_col_tiles(pj):
        if tj == tile_col:
            return off
        off += dist.tile_shape(0, tj)[1]
    raise ValueError(f"tile column {tile_col} not owned by grid column {pj}")


def _local_row_offset(dist: BlockCyclic2D, pi: int, tile_row: int) -> int:
    off = 0
    for ti in dist.local_row_tiles(pi):
        if ti == tile_row:
            return off
        off += dist.tile_shape(ti, 0)[0]
    raise ValueError(f"tile row {tile_row} not owned by grid row {pi}")


# --------------------------------------------------------------------------
# pdtran: transpose redistribution (the cost behind pdgemm's T cases)
# --------------------------------------------------------------------------

PDTRAN_WINDOW = 8
"""Outstanding sends/receives per rank during the transpose redistribution.

The real routine stages tiles through a bounded set of communication
buffers rather than posting every exchange at once; the window also keeps
the flow-level network simulation tractable for large tile counts."""


def pdtran_rank(ctx: RankContext, src: BlockCyclic2D, dst: BlockCyclic2D,
                src_local: Optional[np.ndarray],
                tag_base: int = 5_000_000) -> Generator:
    """Redistribute ``src`` (stored k x m) as its transpose in ``dst`` (m x k).

    Every source tile ``(ti, tj)`` is sent (transposed) to the owner of
    destination tile ``(tj, ti)``, at most :data:`PDTRAN_WINDOW` exchanges
    in flight per rank.  Returns this rank's packed local array of the
    transposed matrix (or None in synthetic mode).
    """
    if src.m != dst.n or src.n != dst.m:
        raise ValueError(
            f"pdtran shape mismatch: src {src.m}x{src.n} vs dst {dst.m}x{dst.n}")
    real = src_local is not None
    me = ctx.rank
    if me >= src.nranks:
        return None
    pi, pj = src.coords_of(me)
    dst_local = (np.zeros(dst.local_shape(me)) if real else None)

    recv_tiles = [(ti, tj) for ti in dst.local_row_tiles(pi)
                  for tj in dst.local_col_tiles(pj)]
    send_tiles = [(ti, tj) for ti in src.local_row_tiles(pi)
                  for tj in src.local_col_tiles(pj)]

    def post_recv(ti: int, tj: int):
        # Destination tile (ti, tj) comes from source tile (tj, ti) and
        # lands straight in its packed slot.
        s_owner = src.rank_of(*src.tile_owner(tj, ti))
        out = None
        if real:
            h, w = dst.tile_shape(ti, tj)
            r0 = _local_row_offset(dst, pi, ti)
            c0 = _local_col_offset(dst, pj, tj)
            out = dst_local[r0:r0 + h, c0:c0 + w]
        return ctx.mpi.irecv(out, src=s_owner,
                             tag=tag_base + ti * dst.tiles_n + tj)

    def post_send(ti: int, tj: int):
        d_owner = dst.rank_of(*dst.tile_owner(tj, ti))
        tag = tag_base + tj * dst.tiles_n + ti  # dest tile is (tj, ti)
        h, w = src.tile_shape(ti, tj)
        tile = None
        if real:
            r0 = _local_row_offset(src, pi, ti)
            c0 = _local_col_offset(src, pj, tj)
            tile = src_local[r0:r0 + h, c0:c0 + w].T
        return ctx.mpi.isend(d_owner, tile, tag=tag, nbytes=h * w * 8.0)

    # Post every send, then enter waitall-like progress (rendezvous data
    # may flow as soon as the matching receive appears).  Receives are
    # posted through a sliding window, so each rank grants at most
    # PDTRAN_WINDOW clear-to-sends at a time — that bounds the number of
    # concurrent wire transfers without any deadlock risk (every send's
    # matching receive is eventually posted, in a fixed global order).
    sends = [post_send(ti, tj) for ti, tj in send_tiles]
    ctx.mpi.progress(sends)

    pending_recvs: list = []
    ri = 0
    while ri < len(recv_tiles) or pending_recvs:
        while ri < len(recv_tiles) and len(pending_recvs) < PDTRAN_WINDOW:
            pending_recvs.append(post_recv(*recv_tiles[ri]))
            ri += 1
        yield from ctx.mpi.wait(pending_recvs.pop(0))
    yield from ctx.mpi.wait_all(sends)
    return dst_local


# --------------------------------------------------------------------------
# the SUMMA kernel on block-cyclic layout
# --------------------------------------------------------------------------

def _summa_bc_rank(ctx: RankContext, da: BlockCyclic2D, db: BlockCyclic2D,
                   dc: BlockCyclic2D,
                   a_local: Optional[np.ndarray], b_local: Optional[np.ndarray],
                   c_local: Optional[np.ndarray]) -> Generator:
    """Block-cyclic SUMMA main loop (untransposed operands)."""
    p, q = dc.p, dc.q
    me = ctx.rank
    if me >= p * q:
        return None
    pi, pj = dc.coords_of(me)
    real = c_local is not None
    my_m = dc.local_rows(pi)
    my_n = dc.local_cols(pj)
    row_group = [dc.rank_of(pi, j) for j in range(q)]
    col_group = [dc.rank_of(i, pj) for i in range(p)]

    tiles_k = da.tiles_n  # == db.tiles_m
    for t in range(tiles_k):
        kk = da.tile_shape(0, t)[1]
        a_root_col = t % q
        a_root = dc.rank_of(pi, a_root_col)
        b_root_row = t % p
        b_root = dc.rank_of(b_root_row, pj)
        a_pan = b_pan = None
        if real:
            a_pan = np.empty((my_m, kk))
            if me == a_root:
                c0 = _local_col_offset(da, a_root_col, t)
                a_pan[...] = a_local[:, c0:c0 + kk]
            b_pan = np.empty((kk, my_n))
            if me == b_root:
                r0 = _local_row_offset(db, b_root_row, t)
                b_pan[...] = b_local[r0:r0 + kk, :]
        if my_m:
            yield from ctx.mpi.bcast(a_pan, root=a_root, group=row_group,
                                     tag=6_000_000 + 2 * t,
                                     nbytes=my_m * kk * 8.0)
        if my_n:
            yield from ctx.mpi.bcast(b_pan, root=b_root, group=col_group,
                                     tag=6_000_001 + 2 * t,
                                     nbytes=kk * my_n * 8.0)
        if my_m and my_n:
            if real:
                yield from ctx.dgemm(a_pan, b_pan, c_local)
            else:
                yield from ctx.dgemm_flops(my_m, my_n, kk)
    return None


def pdgemm_rank(ctx: RankContext, m: int, n: int, k: int, nb: int,
                p: int, q: int, transa: bool, transb: bool,
                a_local: Optional[np.ndarray], b_local: Optional[np.ndarray],
                c_local: Optional[np.ndarray]) -> Generator:
    """Per-rank pdgemm: optional pdtran redistributions, then SUMMA.

    ``a_local``/``b_local`` are packed block-cyclic locals of the *stored*
    matrices (``k x m`` when transa, etc.); None for synthetic runs.
    Returns ``c_local``, this rank's packed block of C.
    """
    da = BlockCyclic2D(m, k, nb, nb, p, q)
    db = BlockCyclic2D(k, n, nb, nb, p, q)
    dc = BlockCyclic2D(m, n, nb, nb, p, q)

    if transa:
        stored = BlockCyclic2D(k, m, nb, nb, p, q)
        a_local = yield from pdtran_rank(ctx, stored, da, a_local,
                                         tag_base=5_000_000)
    if transb:
        stored = BlockCyclic2D(n, k, nb, nb, p, q)
        b_local = yield from pdtran_rank(ctx, stored, db, b_local,
                                         tag_base=5_500_000)
    if (transa or transb) and ctx.rank < p * q:
        # pdtran is collective; resynchronise before the SUMMA phase as the
        # library does between redistribution and compute.
        yield from ctx.mpi.barrier(group=list(range(p * q)))

    yield from _summa_bc_rank(ctx, da, db, dc, a_local, b_local, c_local)
    return c_local


def pdgemm_multiply(spec, nranks: int, m: int, n: int, k: int,
                    transa: bool = False, transb: bool = False,
                    p: Optional[int] = None, q: Optional[int] = None,
                    nb: int = DEFAULT_NB, payload: str = "real",
                    verify: bool = True, seed: int = 0,
                    interference=None, faults=None) -> MultiplyResult:
    """Run ``C = op(A) @ op(B)`` with the pdgemm stand-in."""
    if nb < 1:
        raise ValueError(f"tile size nb must be >= 1, got {nb}")
    if p is None or q is None:
        p, q = choose_grid(nranks)
    da_stored = BlockCyclic2D(k if transa else m, m if transa else k,
                              nb, nb, p, q)
    db_stored = BlockCyclic2D(n if transb else k, k if transb else n,
                              nb, nb, p, q)
    dc = BlockCyclic2D(m, n, nb, nb, p, q)

    def setup(ctx, ops):
        a_loc = b_loc = c_loc = None
        if ops is not None and ctx.rank < p * q:
            a_loc = scatter_local(da_stored, ctx.rank, ops.a)
            b_loc = scatter_local(db_stored, ctx.rank, ops.b)
            c_loc = np.zeros(dc.local_shape(ctx.rank))
        return pdgemm_rank(ctx, m, n, k, nb, p, q, transa, transb,
                           a_loc, b_loc, c_loc)

    # Each rank's kernel returns its packed block of C.
    return run_multiply("pdgemm", spec, nranks, m, n, k, (p, q), setup,
                        payload=payload, verify=verify, seed=seed,
                        interference=interference, faults=faults,
                        transa=transa, transb=transb, kb=nb,
                        gather=lambda run: gather_global(dc, run.results))
