"""Front-door API: every ``*_multiply`` function runs through one routine.

:func:`run_multiply` is the routine all six front doors share —
:func:`srumma_multiply` here,
:func:`~repro.core.hierarchical.hierarchical_multiply`, and the SUMMA,
pdgemm, Cannon and Fox baselines.  It draws the operands, runs each rank's
untimed set-up, the start barrier and the algorithm on the simulated
machine, reports virtual-time performance, and assembles and verifies C
against numpy::

    from repro import srumma_multiply
    from repro.machines import LINUX_MYRINET

    res = srumma_multiply(LINUX_MYRINET, nranks=16, m=512, n=512, k=512)
    print(res.gflops, res.max_error)

The first argument of every front door is a
:class:`~repro.machines.spec.MachineSpec` or a prebuilt
:class:`~repro.sim.cluster.Machine`; engine modes are set on the latter
(``Machine(spec, nranks, fast_forward=False)``).  ``payload="synthetic"``
runs the identical communication/compute schedule without real numpy
data — used by the large-N benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

import numpy as np

from ..comm.base import ParallelRun, RankContext, run_parallel
from ..distarray.distribution import Block2D, choose_grid
from ..distarray.global_array import GlobalArray
from .srumma import RankStats, SrummaOptions, srumma_rank

__all__ = ["MultiplyResult", "Operands", "run_multiply", "srumma_multiply",
           "make_operands", "measured_omega"]


def measured_omega(result: "MultiplyResult") -> float:
    """The paper's overlap degree omega, measured from a run.

    omega = (non-overlapped communication) / (total communication time) —
    the fraction of transfer time the CPUs actually sat blocked on
    (§2.1: 'the degree of overlapping'; §4.1: 'we were able to overlap
    more than 90% of the communication ... thus omega is less than 10%').
    Returns 0 when the run had no communication.
    """
    comm_total = sum(s.comm_time for s in result.stats)
    if comm_total <= 0:
        return 0.0
    blocked = result.run.tracer.total("comm_wait")
    return min(1.0, max(0.0, blocked / comm_total))


@dataclass
class MultiplyResult:
    """Outcome of one distributed multiplication, for every algorithm."""

    elapsed: float
    """Virtual seconds from the post-setup barrier to the last rank's finish."""

    gflops: float
    """Aggregate 2*m*n*k / elapsed, in GFLOP/s."""

    m: int
    n: int
    k: int
    nranks: int
    grid: tuple[int, int]
    """Process grid; the hierarchical variant's grid of shared-memory domains."""

    run: ParallelRun
    stats: Optional[list[RankStats]] = None
    """Per-rank SRUMMA statistics (None for the algorithms that keep none)."""

    kb: Optional[int] = None
    """k-panel width: SUMMA's and hierarchical's ``kb``, pdgemm's tile ``nb``."""

    c: Optional[np.ndarray] = None
    """The assembled result matrix (real payload only)."""

    max_error: Optional[float] = None
    """Max abs deviation from the numpy reference (real payload + verify)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MultiplyResult {self.m}x{self.n}x{self.k} P={self.nranks} "
                f"grid={self.grid} {self.gflops:.2f} GFLOP/s>")


@dataclass
class Operands:
    """Real-payload data a rank's set-up reads."""

    a: np.ndarray
    """op(A) in stored orientation (``k x m`` when transposed)."""

    b: np.ndarray
    """op(B) in stored orientation."""

    c: np.ndarray
    """The buffer C is produced in: zeros, or the seeded initial C when
    ``beta != 0``."""


def make_operands(m: int, n: int, k: int, transa: bool, transb: bool,
                  seed: int = 0, dtype=np.float64):
    """Reference operands in *stored* orientation.

    Returns ``(a_stored, b_stored, expected_c)`` where ``a_stored`` is
    ``k x m`` when ``transa`` else ``m x k`` (likewise for B), and
    ``expected_c = op(a) @ op(b)``.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, m) if transa else (m, k)).astype(dtype)
    b = rng.standard_normal((n, k) if transb else (k, n)).astype(dtype)
    expected = (a.T if transa else a) @ (b.T if transb else b)
    return a, b, expected


def run_multiply(name: str, machine, nranks: int, m: int, n: int, k: int,
                 grid: tuple[int, int],
                 setup: Callable[[RankContext, Optional[Operands]], Generator],
                 *, payload: str, verify: bool, seed: int,
                 interference=None, faults=None,
                 recovers_crashes: bool = False,
                 transa: bool = False, transb: bool = False,
                 alpha: float = 1.0, beta: float = 0.0, dtype=np.float64,
                 kb: Optional[int] = None,
                 c_shape: Optional[tuple[int, int]] = None,
                 gather: Optional[Callable[[ParallelRun], np.ndarray]] = None
                 ) -> MultiplyResult:
    """Run ``C = alpha * op(A) @ op(B) + beta * C`` with algorithm ``name``.

    ``machine`` is a :class:`~repro.machines.spec.MachineSpec` or a
    prebuilt :class:`~repro.sim.cluster.Machine` of ``nranks`` ranks.
    ``setup(ctx, ops)`` is one rank's untimed set-up: it returns the
    rank's kernel generator, which starts at the barrier every rank passes
    after its set-up.  ``ops`` is None for a synthetic payload.  With a
    real payload the ranks produce C in ``ops.c`` (``c_shape``, default
    ``m x n``, whose leading ``m x n`` corner is the result) unless
    ``gather(run)`` assembles it after the run.  A fault plan with node
    crashes is rejected unless the algorithm ``recovers_crashes``: the
    others would only drain the event queue and report a deadlock.
    """
    if payload not in ("real", "synthetic"):
        raise ValueError(f"payload must be 'real' or 'synthetic', not {payload!r}")
    p, q = grid
    if p * q > nranks:
        raise ValueError(f"grid {p}x{q} needs more than {nranks} ranks")
    if faults is not None and faults.crashes and not recovers_crashes:
        raise ValueError(
            f"{name} cannot recover from a node crash; run fault plans "
            f"with crashes through srumma_multiply")

    ops = expected = None
    if payload == "real":
        a, b, expected = make_operands(m, n, k, transa, transb, seed=seed,
                                       dtype=dtype)
        expected *= alpha
        if beta != 0.0:
            rng = np.random.default_rng(seed + 1)
            c = rng.standard_normal((m, n)).astype(dtype)
            expected += beta * c
        else:
            c = np.zeros(c_shape or (m, n), dtype=dtype)
        ops = Operands(a, b, c)

    spans: dict[int, tuple[float, float]] = {}

    def rank_fn(ctx):
        kernel = setup(ctx, ops)
        yield from ctx.mpi.barrier()
        t0 = ctx.now
        value = yield from kernel
        spans[ctx.rank] = (t0, ctx.now)
        return value

    run = run_parallel(machine, nranks, rank_fn, interference=interference,
                       faults=faults)
    elapsed = (max(span[1] for span in spans.values())
               - min(span[0] for span in spans.values()))
    gflops = 2.0 * m * n * k / elapsed / 1e9 if elapsed > 0 else float("inf")
    result = MultiplyResult(elapsed=elapsed, gflops=gflops, m=m, n=n, k=k,
                            nranks=nranks, grid=grid, run=run, kb=kb)
    if ops is not None:
        result.c = gather(run) if gather is not None else ops.c[:m, :n]
        if verify:
            result.max_error = float(np.max(np.abs(result.c - expected)))
            tol = 1e-8 * max(1, k)
            if result.max_error > tol:
                raise AssertionError(
                    f"{name} result wrong: max|err|={result.max_error:.3e} "
                    f"> tol={tol:.3e} (m={m}, n={n}, k={k}, grid={p}x{q}, "
                    f"transa={transa}, transb={transb})")
    return result


def srumma_multiply(spec, nranks: int, m: int, n: int, k: int,
                    transa: bool = False, transb: bool = False,
                    p: Optional[int] = None, q: Optional[int] = None,
                    options: Optional[SrummaOptions] = None,
                    payload: str = "real", verify: bool = True,
                    seed: int = 0, dtype=np.float64,
                    alpha: float = 1.0, beta: float = 0.0,
                    interference=None, faults=None) -> MultiplyResult:
    """Run ``C = alpha * op(A) @ op(B) + beta * C`` with SRUMMA.

    With ``beta != 0`` the initial C is a seeded random matrix (so the
    accumulate path is actually exercised and verified).

    Parameters
    ----------
    spec, nranks:
        Machine model (or a prebuilt :class:`~repro.sim.cluster.Machine`)
        and process count.
    m, n, k:
        Global dimensions of ``op(A) (m x k)``, ``op(B) (k x n)``, ``C (m x n)``.
    transa, transb:
        Transpose flags; the stored matrices then have swapped dims.
    p, q:
        Process grid (default: most-square factorisation of ``nranks``).
    options:
        :class:`SrummaOptions` switches; default is the paper's best config.
    payload:
        ``"real"`` moves numpy data and can verify; ``"synthetic"`` runs the
        identical schedule timing-only.
    verify:
        Compare the assembled C against numpy (real payload only).
    """
    if p is None or q is None:
        p, q = choose_grid(nranks)
    dist_a = Block2D(k if transa else m, m if transa else k, p, q)
    dist_b = Block2D(n if transb else k, k if transb else n, p, q)
    dist_c = Block2D(m, n, p, q)

    def setup(ctx, ops):
        args = (dist_a, dist_b, dist_c)
        if ops is not None:
            args = tuple(GlobalArray.create(ctx, name, *x.shape, p=p, q=q,
                                            dtype=dtype)
                         for name, x in (("A", ops.a), ("B", ops.b),
                                         ("C", ops.c)))
            args[0].load(ops.a)
            args[1].load(ops.b)
            if beta != 0.0:
                args[2].load(ops.c)
        return srumma_rank(ctx, *args, transa=transa, transb=transb,
                           options=options, alpha=alpha, beta=beta)

    result = run_multiply(
        "SRUMMA", spec, nranks, m, n, k, (p, q), setup, payload=payload,
        verify=verify, seed=seed, interference=interference, faults=faults,
        recovers_crashes=True, transa=transa, transb=transb, alpha=alpha,
        beta=beta, dtype=dtype,
        gather=lambda run: GlobalArray.assemble(run.armci, "C", dist_c,
                                                dtype=dtype))
    result.stats = list(result.run.results)
    return result
