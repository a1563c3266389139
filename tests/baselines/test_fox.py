"""Tests for Fox's algorithm (BMR)."""

import numpy as np
import pytest

from repro.baselines import cannon_multiply, fox_multiply
from repro.machines import IBM_SP, LINUX_MYRINET


def test_square_divisible():
    res = fox_multiply(LINUX_MYRINET, 4, 16, 16, 16)
    assert res.max_error < 1e-9


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_grid_sizes(s):
    res = fox_multiply(LINUX_MYRINET, s * s, 24, 24, 24, s=s)
    assert res.max_error < 1e-9


def test_non_divisible_dims():
    res = fox_multiply(LINUX_MYRINET, 9, 17, 19, 23)
    assert res.max_error < 1e-9


def test_rectangular():
    res = fox_multiply(LINUX_MYRINET, 4, 30, 10, 20)
    assert res.max_error < 1e-9


def test_extra_ranks_idle():
    res = fox_multiply(LINUX_MYRINET, 7, 16, 16, 16)  # s=2, 3 idle
    assert res.grid == (2, 2)
    assert res.max_error < 1e-9


def test_oversized_grid_raises():
    with pytest.raises(ValueError):
        fox_multiply(LINUX_MYRINET, 4, 8, 8, 8, s=3)


def test_agrees_with_cannon():
    f = fox_multiply(LINUX_MYRINET, 9, 27, 27, 27, seed=3)
    c = cannon_multiply(LINUX_MYRINET, 9, 27, 27, 27, seed=3)
    assert np.allclose(f.c, c.c)


def test_runner_dispatch():
    from repro.bench import run_matmul

    point = run_matmul("fox", IBM_SP, 16, 64)
    assert point.algorithm == "fox"
    assert point.gflops > 0


def test_runner_rejects_transpose():
    from repro.bench import run_matmul

    with pytest.raises(ValueError, match="NN"):
        run_matmul("fox", LINUX_MYRINET, 4, 16, transa=True)
