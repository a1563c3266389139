"""Hierarchical two-level SRUMMA (after arXiv 1306.4161).

The flat algorithms treat every rank as a grid cell, so at thousands of
ranks each NIC serves ``O(sqrt(P))`` partners and every panel crosses the
network once *per rank*.  The hierarchical variant matches the machine's
two communication tiers instead:

**Inter-node tier** — one *leader* rank per shared-memory domain joins a
``pn x qn`` grid of domains.  A, B, and C are block-distributed over that
grid in domain-sized blocks owned by the leaders, and the leaders run a
SUMMA pass over k-panels: the owner column of an A panel broadcasts it
along each domain row, the owner row of a B panel along each domain
column.  Only leaders touch the NICs, so per-node network volume scales
with the *domain* grid, not the rank grid.

**Intra-node tier** — every rank of a domain (leader included) computes an
``m``-slice of its domain's C block directly against the leader's panel
buffers through load/store (the SRUMMA cluster-flavour rule: same-domain
operands are views, not copies).  A dissemination barrier over the domain
ranks fences each panel: one before the slice products (panel data must
have landed) and one after (the leader must not overwrite a buffer a
sibling is still reading).

Payloads follow the repo convention: :func:`hierarchical_multiply` with
``payload="real"`` moves numpy data and verifies against the numpy
product; ``payload="synthetic"`` runs the identical schedule timing-only
(the large-rank benchmark path).
"""

from __future__ import annotations

import math
from typing import Generator, Optional

import numpy as np

from ..baselines.summa import bcast_panels, k_panels
from ..comm.base import RankContext
from ..distarray.distribution import Block2D, choose_grid
from ..sim.cluster import Machine
from .api import MultiplyResult, run_multiply

__all__ = ["hierarchical_rank", "hierarchical_multiply", "default_kb_nodes"]


def default_kb_nodes(k: int, n_domains: int) -> int:
    """Inter-node panel width: the runner's empirical rule applied to the
    *domain* grid (panels per leader block, not per rank block)."""
    q = max(1, int(math.isqrt(n_domains)))
    kb = max(32, min(256, k // (2 * q)))
    return max(1, min(kb, k))


def hierarchical_rank(ctx: RankContext, dist_a: Block2D, dist_b: Block2D,
                      dist_c: Block2D, kb: int, leaders: list[int],
                      panels_shared: dict,
                      a_local: Optional[np.ndarray],
                      b_local: Optional[np.ndarray],
                      c_local: Optional[np.ndarray]) -> Generator:
    """Per-rank two-level SRUMMA (generator).

    ``dist_*`` are *domain-grid* distributions (one block per shared-memory
    domain, owned by that domain's leader).  ``leaders`` maps domain id ->
    leader rank.  ``panels_shared`` is the cross-rank panel exchange area:
    leaders publish their received (a_pan, b_pan) buffers per domain so
    siblings can slice them zero-copy — the simulated load/store access.
    ``a_local``/``b_local`` are the leader's blocks; ``c_local`` is every
    domain rank's load/store view of its domain's C block.  Pass None
    buffers for a synthetic run.
    """
    machine = ctx.machine
    domain = machine.domain_of(ctx.rank)
    pn, qn = dist_c.p, dist_c.q
    if domain >= pn * qn:
        return None
    di, dj = dist_c.coords_of(domain)
    leader = leaders[domain]
    is_leader = ctx.rank == leader
    real = c_local is not None

    # Leader row/column groups of the domain grid (inter-node tier).
    groups = ([leaders[dist_c.rank_of(di, j)] for j in range(qn)],
              [leaders[dist_c.rank_of(i, dj)] for i in range(pn)])
    # Every rank of this domain (intra-node tier fences).
    domain_ranks = machine.ranks_in_domain(domain)

    r0, r1 = dist_c.row_range(di)
    c0, c1 = dist_c.col_range(dj)
    node_m = r1 - r0
    node_n = c1 - c0

    # Row-split of the domain's C block among its ranks: rank at position
    # ``pos`` of the domain computes rows [lo, hi) of the node block.
    pos = domain_ranks.index(ctx.rank)
    nloc = len(domain_ranks)
    lo = pos * node_m // nloc
    hi = (pos + 1) * node_m // nloc
    my_m = hi - lo
    penalty = (not is_leader
               and ctx.shmem.direct_access_penalty(leader))

    for t, (k_lo, k_hi) in enumerate(k_panels(dist_a, dist_b, kb)):
        kk = k_hi - k_lo
        if is_leader:
            # --- inter-node tier: leader SUMMA broadcasts -----------------
            panels_shared[domain] = yield from bcast_panels(
                ctx, dist_a, dist_b, (di, dj), t, k_lo, k_hi, groups,
                a_local, b_local, tag_base=5_000_000, leaders=leaders)
        # --- intra-node tier: fence, slice products, fence ----------------
        # First fence: the leader's panels have landed before any sibling
        # loads from them.
        yield from ctx.mpi.barrier(group=domain_ranks, tag=6_000_000 + 2 * t)
        if my_m and node_n and kk:
            if real:
                a_pan, b_pan = panels_shared[domain]
                yield from ctx.dgemm(a_pan[lo:hi, :], b_pan,
                                     c_local[lo:hi, :],
                                     remote_uncached=penalty)
            else:
                yield from ctx.dgemm_flops(my_m, node_n, kk,
                                           remote_uncached=penalty)
        # Second fence: nobody still reads the buffers the leader is about
        # to refill with panel t+1.
        yield from ctx.mpi.barrier(group=domain_ranks, tag=6_000_001 + 2 * t)
    return None


def hierarchical_multiply(spec, nranks: int, m: int, n: int,
                          k: int, kb: Optional[int] = None,
                          payload: str = "real", verify: bool = True,
                          seed: int = 0, interference=None, faults=None
                          ) -> MultiplyResult:
    """Run ``C = A @ B`` with the two-level hierarchical SRUMMA."""
    # The domain layout comes from the machine, so build it first and run
    # the ranks on the same instance.
    machine = spec if isinstance(spec, Machine) else Machine(spec, nranks)
    n_domains = machine.n_domains
    pn, qn = choose_grid(n_domains)
    dist_a = Block2D(m, k, pn, qn)
    dist_b = Block2D(k, n, pn, qn)
    dist_c = Block2D(m, n, pn, qn)
    if kb is None:
        kb = default_kb_nodes(k, n_domains)
    if kb < 1:
        raise ValueError(f"panel width kb must be >= 1, got {kb}")
    leaders = [machine.domain_leader(d) for d in range(n_domains)]
    panels_shared: dict = {}

    def setup(ctx, ops):
        blocks = (None, None, None)
        domain = machine.domain_of(ctx.rank)
        if ops is not None and domain < pn * qn:
            di, dj = dist_c.coords_of(domain)
            # Siblings write their C row-slices through load/store into
            # the domain's block; only the leader holds A and B.
            c = ops.c[dist_c.block_slices(di, dj)]
            blocks = (None, None, c)
            if ctx.rank == leaders[domain]:
                blocks = (ops.a[dist_a.block_slices(di, dj)],
                          ops.b[dist_b.block_slices(di, dj)], c)
        return hierarchical_rank(ctx, dist_a, dist_b, dist_c, kb, leaders,
                                 panels_shared, *blocks)

    return run_multiply("hierarchical", machine, nranks, m, n, k, (pn, qn),
                        setup, payload=payload, verify=verify, seed=seed,
                        interference=interference, faults=faults, kb=kb)
