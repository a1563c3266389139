"""Tests for the dynamic runtime task schedule (paper §2)."""

import pytest

from repro.core import ScheduleOptions, SrummaOptions, srumma_multiply
from repro.machines import IBM_SP, LINUX_MYRINET, SGI_ALTIX

DYN = SrummaOptions(flavor="cluster", dynamic=True)


def test_dynamic_is_numerically_correct():
    res = srumma_multiply(LINUX_MYRINET, 8, 32, 32, 32, options=DYN)
    assert res.max_error < 1e-9


@pytest.mark.parametrize("transa,transb", [(True, False), (False, True),
                                           (True, True)])
def test_dynamic_transpose_variants(transa, transb):
    res = srumma_multiply(LINUX_MYRINET, 6, 21, 17, 19, options=DYN,
                          transa=transa, transb=transb)
    assert res.max_error < 1e-9


def test_dynamic_on_all_local_machine():
    """With nothing remote the dynamic path degrades to plain execution."""
    res = srumma_multiply(SGI_ALTIX, 4, 16, 16, 16,
                          options=SrummaOptions(flavor="direct", dynamic=True))
    assert res.max_error < 1e-9


def test_dynamic_depth1_equals_static_pipeline():
    """With one outstanding prefetch the dynamic executor visits tasks in
    exactly the static pipeline's order, so the schedules coincide."""
    static = srumma_multiply(IBM_SP, 64, 1024, 1024, 1024,
                             payload="synthetic",
                             options=SrummaOptions(flavor="cluster")).elapsed
    dyn1 = srumma_multiply(IBM_SP, 64, 1024, 1024, 1024,
                           payload="synthetic",
                           options=SrummaOptions(flavor="cluster",
                                                 dynamic=True,
                                                 pipeline_depth=1)).elapsed
    assert dyn1 == pytest.approx(static, rel=1e-9)


def test_dynamic_helps_under_contention_skew():
    """Without the diagonal shift, get completion times are skewed by the
    first-round NIC stampede; completion-order execution recovers part of
    the loss (the paper's motivation for dynamic sequencing)."""
    nodiag = ScheduleOptions(diagonal_shift=False)
    static = srumma_multiply(IBM_SP, 64, 1024, 1024, 1024,
                             payload="synthetic",
                             options=SrummaOptions(flavor="cluster",
                                                   schedule=nodiag)).elapsed
    dynamic = srumma_multiply(IBM_SP, 64, 1024, 1024, 1024,
                              payload="synthetic",
                              options=SrummaOptions(flavor="cluster",
                                                    dynamic=True,
                                                    schedule=nodiag)).elapsed
    assert dynamic < static


def test_dynamic_beats_blocking():
    blocking = srumma_multiply(LINUX_MYRINET, 16, 1024, 1024, 1024,
                               payload="synthetic",
                               options=SrummaOptions(flavor="cluster",
                                                     nonblocking=False)).elapsed
    dynamic = srumma_multiply(LINUX_MYRINET, 16, 1024, 1024, 1024,
                              payload="synthetic", options=DYN).elapsed
    assert dynamic < blocking


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_pipeline_depths_all_correct(depth):
    res = srumma_multiply(LINUX_MYRINET, 8, 32, 32, 32,
                          options=SrummaOptions(flavor="cluster",
                                                dynamic=True,
                                                pipeline_depth=depth))
    assert res.max_error < 1e-9


def test_invalid_depth_rejected():
    with pytest.raises(ValueError):
        SrummaOptions(pipeline_depth=0)


def test_describe_mentions_dynamic():
    assert "dyn" in DYN.describe()
