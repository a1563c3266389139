"""Tests for the tracer and time accounting."""

import pytest

from repro.sim import TimeBuckets, Tracer


def test_account_and_totals():
    t = Tracer()
    t.account(0, "compute", 1.5)
    t.account(0, "compute", 0.5)
    t.account(1, "comm_wait", 3.0)
    assert t.buckets(0).compute == 2.0
    assert t.total("compute") == 2.0
    assert t.total("comm_wait") == 3.0


def test_unknown_bucket_goes_to_other():
    t = Tracer()
    t.account(0, "mystery", 2.0)
    assert t.buckets(0).other == 2.0
    assert t.summary()["other"] == 2.0


def test_negative_interval_rejected():
    t = Tracer()
    with pytest.raises(ValueError):
        t.account(0, "compute", -1.0)


def test_counters():
    t = Tracer()
    t.bump("gets")
    t.bump("gets", 4)
    assert t.counters["gets"] == 5
    assert t.summary()["count:gets"] == 5


def test_time_buckets_total():
    b = TimeBuckets(compute=1.0, comm_wait=2.0, copy=0.5)
    assert b.total() == 3.5


def test_all_buckets_snapshot():
    t = Tracer()
    t.account(3, "copy", 1.0)
    snap = t.all_buckets()
    assert snap[3].copy == 1.0
