"""Numerical correctness of SRUMMA across shapes, variants, platforms."""

import numpy as np
import pytest

from repro.core import ScheduleOptions, SrummaOptions, srumma_multiply
from repro.machines import CRAY_X1, IBM_SP, IDEAL, LINUX_MYRINET, SGI_ALTIX


def ok(res):
    assert res.max_error is not None
    return res.max_error < 1e-8 * max(1, res.k)


def test_square_even_grid():
    res = srumma_multiply(LINUX_MYRINET, 4, 32, 32, 32)
    assert ok(res)
    assert res.c.shape == (32, 32)


def test_single_rank_degenerate():
    res = srumma_multiply(LINUX_MYRINET, 1, 16, 16, 16)
    assert ok(res)


@pytest.mark.parametrize("nranks", [2, 3, 6, 8, 12])
def test_various_rank_counts(nranks):
    res = srumma_multiply(LINUX_MYRINET, nranks, 24, 24, 24)
    assert ok(res)


@pytest.mark.parametrize("m,n,k", [
    (17, 23, 11),   # primes, nothing divides
    (40, 10, 20),   # wide/thin rectangular
    (10, 40, 20),
    (64, 8, 8),
    (5, 5, 64),     # deep k
])
def test_rectangular_shapes(m, n, k):
    res = srumma_multiply(LINUX_MYRINET, 6, m, n, k)
    assert ok(res)


@pytest.mark.parametrize("transa,transb", [
    (False, False), (True, False), (False, True), (True, True),
])
def test_all_transpose_variants_square_grid(transa, transb):
    res = srumma_multiply(LINUX_MYRINET, 4, 20, 20, 20,
                          transa=transa, transb=transb)
    assert ok(res)


@pytest.mark.parametrize("transa,transb", [
    (True, False), (False, True), (True, True),
])
def test_transpose_on_nonsquare_grid(transa, transb):
    """p != q forces the extra m/n segmentation in task construction."""
    res = srumma_multiply(LINUX_MYRINET, 8, 24, 24, 24,
                          transa=transa, transb=transb)  # 4x2 grid
    assert ok(res)


@pytest.mark.parametrize("transa,transb", [
    (True, False), (False, True), (True, True),
])
def test_transpose_rectangular_nonsquare_grid(transa, transb):
    res = srumma_multiply(LINUX_MYRINET, 6, 21, 13, 17,
                          transa=transa, transb=transb)  # 3x2 grid
    assert ok(res)


@pytest.mark.parametrize("spec", [LINUX_MYRINET, IBM_SP, CRAY_X1, SGI_ALTIX, IDEAL],
                         ids=lambda s: s.name)
def test_all_platforms(spec):
    res = srumma_multiply(spec, 8, 24, 24, 24)
    assert ok(res)


@pytest.mark.parametrize("flavor", ["cluster", "direct", "copy"])
def test_explicit_flavors_on_altix(flavor):
    res = srumma_multiply(SGI_ALTIX, 4, 16, 16, 16,
                          options=SrummaOptions(flavor=flavor))
    assert ok(res)
    assert all(s.flavor == flavor for s in res.stats)


def test_copy_flavor_on_x1_produces_copies():
    res = srumma_multiply(CRAY_X1, 8, 32, 32, 32,
                          options=SrummaOptions(flavor="copy"))
    assert ok(res)
    assert sum(s.copies for s in res.stats) > 0


def test_direct_flavor_does_no_communication():
    res = srumma_multiply(SGI_ALTIX, 4, 16, 16, 16,
                          options=SrummaOptions(flavor="direct"))
    assert ok(res)
    assert sum(s.remote_gets for s in res.stats) == 0
    assert sum(s.copies for s in res.stats) == 0


def test_blocking_mode_correct():
    res = srumma_multiply(LINUX_MYRINET, 4, 20, 20, 20,
                          options=SrummaOptions(nonblocking=False))
    assert ok(res)


def test_no_diagonal_shift_correct():
    res = srumma_multiply(
        LINUX_MYRINET, 4, 20, 20, 20,
        options=SrummaOptions(schedule=ScheduleOptions(diagonal_shift=False)))
    assert ok(res)


def test_no_local_first_correct():
    res = srumma_multiply(
        LINUX_MYRINET, 4, 20, 20, 20,
        options=SrummaOptions(schedule=ScheduleOptions(local_first=False)))
    assert ok(res)


def test_explicit_grid():
    res = srumma_multiply(LINUX_MYRINET, 8, 24, 24, 24, p=2, q=4)
    assert ok(res)
    assert res.grid == (2, 4)


def test_grid_smaller_than_machine():
    """Extra ranks idle but the run still completes and verifies."""
    res = srumma_multiply(LINUX_MYRINET, 7, 24, 24, 24, p=2, q=2)
    assert ok(res)


def test_more_grid_than_ranks_raises():
    with pytest.raises(ValueError):
        srumma_multiply(LINUX_MYRINET, 2, 8, 8, 8, p=2, q=2)


def test_matrix_smaller_than_grid():
    """Some ranks own empty blocks."""
    res = srumma_multiply(LINUX_MYRINET, 16, 3, 3, 3)
    assert ok(res)


def test_float32_dtype():
    res = srumma_multiply(LINUX_MYRINET, 4, 16, 16, 16,
                          dtype=np.float32, verify=False)
    assert res.c.dtype == np.float32
    _, _, expected = __import__("repro.core.api", fromlist=["make_operands"]) \
        .make_operands(16, 16, 16, False, False, seed=0, dtype=np.float32)
    assert np.allclose(res.c, expected, atol=1e-3)


def test_deterministic_elapsed_time():
    r1 = srumma_multiply(LINUX_MYRINET, 8, 32, 32, 32)
    r2 = srumma_multiply(LINUX_MYRINET, 8, 32, 32, 32)
    assert r1.elapsed == r2.elapsed
    assert np.array_equal(r1.c, r2.c)


def test_stats_reported():
    res = srumma_multiply(LINUX_MYRINET, 4, 32, 32, 32)
    total_flops = sum(s.flops for s in res.stats)
    assert total_flops == 2 * 32 ** 3
    # On a 2x2 grid over 2-way nodes some tasks are domain-local.
    assert sum(s.local_tasks for s in res.stats) > 0
    assert sum(s.remote_gets for s in res.stats) > 0
