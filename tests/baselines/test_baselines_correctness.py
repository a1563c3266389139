"""Numerical correctness of the baseline algorithms."""

import numpy as np
import pytest

from repro.baselines import cannon_multiply, pdgemm_multiply, summa_multiply
from repro.machines import IBM_SP, LINUX_MYRINET, SGI_ALTIX


class TestCannon:
    def test_square_divisible(self):
        res = cannon_multiply(LINUX_MYRINET, 4, 16, 16, 16)
        assert res.max_error < 1e-10 * 16

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_grid_sizes(self, s):
        res = cannon_multiply(LINUX_MYRINET, s * s, 18, 18, 18, s=s)
        assert res.max_error < 1e-9

    def test_non_divisible_dims_padded(self):
        res = cannon_multiply(LINUX_MYRINET, 9, 17, 19, 23)
        assert res.max_error < 1e-9

    def test_rectangular(self):
        res = cannon_multiply(LINUX_MYRINET, 4, 30, 10, 20)
        assert res.max_error < 1e-9

    def test_extra_ranks_idle(self):
        res = cannon_multiply(LINUX_MYRINET, 6, 16, 16, 16)  # s = 2, 2 idle
        assert res.grid == (2, 2)
        assert res.max_error < 1e-9

    def test_oversized_grid_raises(self):
        with pytest.raises(ValueError):
            cannon_multiply(LINUX_MYRINET, 4, 8, 8, 8, s=3)


class TestSumma:
    def test_square(self):
        res = summa_multiply(LINUX_MYRINET, 4, 24, 24, 24, kb=8)
        assert res.max_error < 1e-9

    @pytest.mark.parametrize("nranks", [1, 2, 6, 8])
    def test_rank_counts(self, nranks):
        res = summa_multiply(LINUX_MYRINET, nranks, 20, 20, 20, kb=8)
        assert res.max_error < 1e-9

    @pytest.mark.parametrize("m,n,k", [(13, 17, 19), (40, 8, 12), (8, 40, 12)])
    def test_awkward_shapes(self, m, n, k):
        res = summa_multiply(LINUX_MYRINET, 6, m, n, k, kb=7)
        assert res.max_error < 1e-9

    @pytest.mark.parametrize("kb", [1, 3, 16, 100])
    def test_panel_widths(self, kb):
        res = summa_multiply(LINUX_MYRINET, 4, 20, 20, 20, kb=kb)
        assert res.max_error < 1e-9

    def test_invalid_kb(self):
        with pytest.raises(ValueError):
            summa_multiply(LINUX_MYRINET, 4, 8, 8, 8, kb=0)


class TestPdgemm:
    def test_square_nn(self):
        res = pdgemm_multiply(LINUX_MYRINET, 4, 24, 24, 24, nb=8)
        assert res.max_error < 1e-9

    @pytest.mark.parametrize("nranks", [1, 2, 4, 6, 8])
    def test_rank_counts(self, nranks):
        res = pdgemm_multiply(LINUX_MYRINET, nranks, 20, 20, 20, nb=8)
        assert res.max_error < 1e-9

    @pytest.mark.parametrize("m,n,k", [(13, 17, 19), (50, 10, 30), (10, 50, 30)])
    def test_awkward_shapes(self, m, n, k):
        res = pdgemm_multiply(LINUX_MYRINET, 6, m, n, k, nb=8)
        assert res.max_error < 1e-9

    @pytest.mark.parametrize("transa,transb", [
        (True, False), (False, True), (True, True),
    ])
    def test_transpose_variants(self, transa, transb):
        res = pdgemm_multiply(LINUX_MYRINET, 4, 24, 24, 24, nb=8,
                              transa=transa, transb=transb)
        assert res.max_error < 1e-9

    @pytest.mark.parametrize("transa,transb", [
        (True, False), (False, True), (True, True),
    ])
    def test_transpose_nonsquare_grid_rectangular(self, transa, transb):
        res = pdgemm_multiply(LINUX_MYRINET, 6, 21, 13, 17, nb=5,
                              transa=transa, transb=transb)
        assert res.max_error < 1e-9

    def test_tile_size_one(self):
        res = pdgemm_multiply(LINUX_MYRINET, 4, 9, 9, 9, nb=1)
        assert res.max_error < 1e-9

    def test_tile_bigger_than_matrix(self):
        res = pdgemm_multiply(LINUX_MYRINET, 4, 8, 8, 8, nb=64)
        assert res.max_error < 1e-9

    def test_transpose_costs_more_than_nn(self):
        """pdtran redistribution makes the T case slower (Table 1 shape)."""
        nn = pdgemm_multiply(LINUX_MYRINET, 8, 64, 64, 64, nb=16)
        tt = pdgemm_multiply(LINUX_MYRINET, 8, 64, 64, 64, nb=16,
                             transa=True, transb=True)
        assert tt.elapsed > nn.elapsed

    @pytest.mark.parametrize("spec", [LINUX_MYRINET, IBM_SP, SGI_ALTIX],
                             ids=lambda s: s.name)
    def test_platforms(self, spec):
        res = pdgemm_multiply(spec, 8, 24, 24, 24, nb=8)
        assert res.max_error < 1e-9


class TestCrossAlgorithm:
    def test_all_algorithms_agree(self):
        """Same seed -> same operands -> same product."""
        from repro.core import srumma_multiply

        sr = srumma_multiply(LINUX_MYRINET, 4, 24, 24, 24, seed=7)
        su = summa_multiply(LINUX_MYRINET, 4, 24, 24, 24, kb=8, seed=7)
        pd = pdgemm_multiply(LINUX_MYRINET, 4, 24, 24, 24, nb=8, seed=7)
        ca = cannon_multiply(LINUX_MYRINET, 4, 24, 24, 24, seed=7)
        assert np.allclose(sr.c, su.c)
        assert np.allclose(sr.c, pd.c)
        assert np.allclose(sr.c, ca.c)
