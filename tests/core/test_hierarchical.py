"""Two-level hierarchical SRUMMA: correctness and scaling behaviour."""

import numpy as np
import pytest

from repro.core.hierarchical import (default_kb_nodes, hierarchical_multiply)
from repro.machines import LINUX_MYRINET, SGI_ALTIX


def _expected(m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    return a @ b


class TestCorrectness:
    def test_single_domain_splits_rows(self):
        # One node, two ranks: the inter-node tier is trivial and the
        # result is produced entirely by the intra-node row split.
        res = hierarchical_multiply(LINUX_MYRINET, nranks=2,
                                    m=64, n=48, k=56)
        assert res.grid == (1, 1)
        assert res.max_error is not None and res.max_error < 1e-10
        np.testing.assert_allclose(res.c, _expected(64, 48, 56), atol=1e-10)

    @pytest.mark.parametrize("nranks,mnk", [
        (8, (96, 80, 72)),      # 2x2 domain grid
        (16, (192, 160, 224)),  # 4x2, rectangular everything
    ])
    def test_cluster_grids(self, nranks, mnk):
        m, n, k = mnk
        res = hierarchical_multiply(LINUX_MYRINET, nranks=nranks, m=m, n=n, k=k)
        assert res.max_error < 1e-8 * k
        np.testing.assert_allclose(res.c, _expected(m, n, k), atol=1e-8)

    def test_shared_memory_platform(self):
        # sgi-altix has large shared-memory domains: the inter-node tier
        # collapses and every rank works through load/store.
        res = hierarchical_multiply(SGI_ALTIX, nranks=8, m=160, n=128, k=144)
        assert res.max_error < 1e-8 * 144

    def test_uneven_dimensions(self):
        # Dimensions that do not divide the domain grid exercise the
        # ragged-edge block shapes and the owner-aligned panel cuts.
        res = hierarchical_multiply(LINUX_MYRINET, nranks=8,
                                    m=107, n=93, k=131)
        assert res.max_error < 1e-8 * 131

    def test_explicit_kb(self):
        res = hierarchical_multiply(LINUX_MYRINET, nranks=8,
                                    m=96, n=96, k=96, kb=16)
        assert res.kb == 16
        assert res.max_error < 1e-8 * 96

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            hierarchical_multiply(LINUX_MYRINET, nranks=4, m=32, n=32, k=32,
                                  payload="imaginary")

    def test_bad_kb_rejected(self):
        with pytest.raises(ValueError, match="kb"):
            hierarchical_multiply(LINUX_MYRINET, nranks=4, m=32, n=32, k=32,
                                  kb=0)


class TestScaling:
    def test_leaders_only_touch_the_network(self):
        # The entire point of the hierarchy: non-leader ranks never put a
        # byte on a NIC.  All network volume must equal what the leader
        # SUMMA tier moves, and grow with the domain grid, not nranks.
        res = hierarchical_multiply(LINUX_MYRINET, nranks=16, m=128, n=128,
                                    k=128, payload="synthetic")
        machine = res.run.machine
        nic = sum(node.nic_out.bytes_carried for node in machine.nodes)
        # Flat SRUMMA at the same size for comparison.
        from repro.core.api import srumma_multiply
        flat = srumma_multiply(LINUX_MYRINET, 16, 128, 128, 128,
                               payload="synthetic", verify=False)
        flat_nic = sum(node.nic_out.bytes_carried
                       for node in flat.run.machine.nodes)
        assert nic < flat_nic

    def test_default_kb_nodes(self):
        assert default_kb_nodes(224, 8) == 56
        assert default_kb_nodes(10_000, 64) == 256   # capped
        assert default_kb_nodes(40, 1024) == 32      # floored at 32
        assert default_kb_nodes(8, 4) == 8
