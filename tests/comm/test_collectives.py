"""Tests for reduce/allreduce collectives."""

import numpy as np
import pytest

from repro.comm import CommError, run_parallel
from repro.machines import LINUX_MYRINET


@pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
def test_reduce_sum_to_root(nranks):
    def prog(ctx):
        buf = np.full(4, float(ctx.rank + 1))
        yield from ctx.mpi.reduce(buf, root=0, op="sum")
        if ctx.rank == 0:
            total = sum(range(1, nranks + 1))
            assert np.all(buf == total)

    run_parallel(LINUX_MYRINET, nranks, prog)


@pytest.mark.parametrize("root", [0, 2, 4])
def test_reduce_nonzero_root(root):
    def prog(ctx):
        buf = np.full(2, float(ctx.rank))
        yield from ctx.mpi.reduce(buf, root=root, op="sum")
        if ctx.rank == root:
            assert np.all(buf == sum(range(5)))

    run_parallel(LINUX_MYRINET, 5, prog)


def test_reduce_max_and_min():
    def prog(ctx):
        buf = np.array([float(ctx.rank), -float(ctx.rank)])
        yield from ctx.mpi.reduce(buf, root=0, op="max")
        if ctx.rank == 0:
            assert buf[0] == 5.0
        buf2 = np.array([float(ctx.rank)])
        yield from ctx.mpi.reduce(buf2, root=0, op="min", tag=4_100_000)
        if ctx.rank == 0:
            assert buf2[0] == 0.0

    run_parallel(LINUX_MYRINET, 6, prog)


def test_reduce_unknown_op_raises():
    def prog(ctx):
        with pytest.raises(CommError, match="unknown reduce op"):
            yield from ctx.mpi.reduce(np.zeros(1), root=0, op="xor")

    run_parallel(LINUX_MYRINET, 2, prog)


def test_reduce_subgroup():
    group = [1, 2, 4]

    def prog(ctx):
        if ctx.rank in group:
            buf = np.array([1.0])
            yield from ctx.mpi.reduce(buf, root=2, op="sum", group=group)
            if ctx.rank == 2:
                assert buf[0] == 3.0
        else:
            yield ctx.engine.timeout(0.0)

    run_parallel(LINUX_MYRINET, 5, prog)


@pytest.mark.parametrize("nranks", [1, 2, 4, 7])
def test_allreduce_everyone_gets_result(nranks):
    def prog(ctx):
        buf = np.array([float(ctx.rank + 1)])
        yield from ctx.mpi.allreduce(buf, op="sum")
        assert buf[0] == sum(range(1, nranks + 1))

    run_parallel(LINUX_MYRINET, nranks, prog)


def test_allreduce_large_payload():
    n = 4096

    def prog(ctx):
        buf = np.full(n, 1.0)
        yield from ctx.mpi.allreduce(buf, op="sum")
        assert np.all(buf == 4.0)

    run_parallel(LINUX_MYRINET, 4, prog)


def test_byte_level_reduce_times_only():
    times = {}

    def prog(ctx):
        yield from ctx.mpi.barrier()
        t0 = ctx.now
        yield from ctx.mpi.reduce(None, root=0, op="sum", nbytes=65536.0)
        times[ctx.rank] = ctx.now - t0

    run_parallel(LINUX_MYRINET, 4, prog)
    assert times[0] > 0  # the root actually waited for contributions


def test_byte_level_reduce_needs_nbytes():
    def prog(ctx):
        with pytest.raises(ValueError, match="nbytes"):
            yield from ctx.mpi.reduce(None, root=0)

    run_parallel(LINUX_MYRINET, 2, prog)


@pytest.mark.parametrize("collective", ["reduce", "allreduce"])
def test_byte_level_timing_equals_payload_timing(collective):
    """A byte-level reduce or allreduce costs exactly what the payload one
    of the same size costs (512 KiB on 8 ranks: the rendezvous protocol)."""
    n = 1 << 16

    def run(real: bool) -> float:
        def prog(ctx):
            buf = np.full(n, float(ctx.rank)) if real else None
            kwargs = {"root": 0} if collective == "reduce" else {}
            yield from getattr(ctx.mpi, collective)(
                buf, nbytes=n * 8.0, **kwargs)

        return run_parallel(LINUX_MYRINET, 8, prog).elapsed

    assert run(real=True).hex() == run(real=False).hex()
