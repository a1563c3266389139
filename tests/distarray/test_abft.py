"""ABFT checksum layer: detection primitives and end-to-end repair.

Unit level: :func:`panel_checksums` / :func:`checksums_match` detect any
single bit flip in a panel and tolerate the round-off a legitimate
transfer can introduce (none — transfers are bit-exact — but the match is
scale-relative so near-zero panels don't false-positive).

End to end: with ``FaultPlan.corruption_rate > 0`` every injected flip is
caught on arrival, re-fetched, and the product still verifies — the
absorbing regime the resilience experiment relies on:
``corruptions_injected == corruptions_detected == corruptions_repaired``
and zero corrupted values reach a dgemm.  Under a crash only the live
ranks' counts must balance: a rank that dies mid-repair strands its
detection.
"""

import numpy as np
import pytest

from repro.core.api import srumma_multiply
from repro.core.srumma import SrummaOptions
from repro.distarray import checksums_match, panel_checksums, verify_cost
from repro.machines import LINUX_MYRINET
from repro.sim.faults import FaultPlan

N, P = 96, 4


class TestChecksumPrimitives:
    def test_intact_panel_matches_itself(self):
        rng = np.random.default_rng(0)
        panel = rng.standard_normal((16, 12))
        assert checksums_match(panel, panel_checksums(panel))

    def test_significant_bit_flips_are_detected(self):
        # The checksum match is scale-relative at 1e-9: flips in the low
        # mantissa (relative change ~2^-52) are invisible to it, but they
        # are equally invisible to the result verification — *significant*
        # flips, including the injector's bit 52, must always be caught.
        rng = np.random.default_rng(1)
        panel = rng.standard_normal((8, 8))
        ref = panel_checksums(panel)
        for flat in (0, 17, 63):  # corners and an interior element
            for bit in (31, 52, 53):  # mantissa mid, exponent low bits
                bad = panel.copy()
                raw = bad.view(np.uint64).reshape(-1)
                raw[flat] ^= np.uint64(1) << np.uint64(bit)
                assert not checksums_match(bad, ref), (flat, bit)

    def test_noncontiguous_panel_views_work(self):
        rng = np.random.default_rng(2)
        big = rng.standard_normal((20, 20))
        view = big[::2, 1:11]
        assert checksums_match(view, panel_checksums(view))

    def test_near_zero_panels_do_not_false_positive(self):
        panel = np.full((4, 4), 1e-300)
        assert checksums_match(panel, panel_checksums(panel))

    def test_verify_cost_scales_linearly(self):
        flops = 4.8e9
        assert verify_cost(1000, flops) == pytest.approx(2000 / flops)
        assert verify_cost(0, flops) == 0.0


class TestEndToEndRepair:
    def _run(self, rate, **kw):
        kw.setdefault("payload", "real")
        kw.setdefault("verify", True)
        kw.setdefault("options", SrummaOptions(dynamic=True))
        plan = FaultPlan(corruption_rate=rate, seed=7) if rate else None
        return srumma_multiply(LINUX_MYRINET, P, N, N, N, faults=plan, **kw)

    def test_every_injected_corruption_is_detected_and_repaired(self):
        res = self._run(0.5)
        assert res.max_error is not None and res.max_error < 1e-10
        health = res.run.tracer.health()
        assert health["corruption_injected"] > 0
        # Absorbing regime: nothing slips through, nothing stays broken.
        assert health["corruption_detected"] == health["corruption_injected"]
        assert health["corruption_repaired"] == health["corruption_detected"]
        detected = sum(s.corruptions_detected for s in res.stats)
        repaired = sum(s.corruptions_repaired for s in res.stats)
        assert detected == health["corruption_detected"]
        assert repaired == detected

    def test_verification_costs_simulated_time(self):
        healthy = self._run(0.0)
        # rate ~0 still verifies every arriving panel; the checksum walk
        # itself must show up as simulated compute time.
        verified = self._run(1e-12)
        assert verified.elapsed > healthy.elapsed
        assert verified.max_error is not None and verified.max_error < 1e-10

    def test_synthetic_payload_counts_match_real(self):
        real = self._run(0.5)
        synth = self._run(0.5, payload="synthetic", verify=False)
        # Identical schedule + identical draw streams: the synthetic run
        # detects and repairs exactly the same corruption set.
        assert (synth.run.tracer.health()["corruption_detected"]
                == real.run.tracer.health()["corruption_detected"])
        assert synth.elapsed == real.elapsed

    def test_corruption_with_crash_still_verifies(self):
        from repro.sim.faults import NodeCrash

        healthy = self._run(0.0)
        plan = FaultPlan(corruption_rate=0.3, seed=3,
                         crashes=(NodeCrash(node=1,
                                            t_fail=0.5 * healthy.elapsed),),
                         checkpoint_interval=1)
        res = srumma_multiply(LINUX_MYRINET, P, N, N, N, faults=plan,
                              options=SrummaOptions(dynamic=True))
        assert res.max_error is not None and res.max_error < 1e-10
        # A corrupt transfer swept by the crash never delivers (injected
        # but not detected); every corruption that *arrives* is absorbed.
        health = res.run.tracer.health()
        assert (health.get("corruption_repaired", 0)
                == health.get("corruption_detected", 0))

    def test_crash_strands_only_the_dead_ranks_detections(self):
        """A rank that dies between detecting a corrupt panel and
        re-fetching it leaves that one detection unrepaired: machine-wide
        detections exceed repairs, while the live ranks balance exactly."""
        from repro.sim.faults import NodeCrash

        p, n = 16, 384
        options = SrummaOptions(dynamic=True)
        h = srumma_multiply(LINUX_MYRINET, p, n, n, n, payload="synthetic",
                            options=options).elapsed
        plan = FaultPlan(crashes=(NodeCrash(node=7, t_fail=0.5 * h),),
                         checkpoint_interval=2, get_timeout=0.25 * h,
                         watchdog_grace=5.0 * h, corruption_rate=0.2,
                         get_fail_prob=0.05, seed=6)
        res = srumma_multiply(LINUX_MYRINET, p, n, n, n, faults=plan,
                              payload="real", verify=True, options=options)
        assert res.max_error is not None and res.max_error < 1e-10
        live = [s for s in res.stats if s is not None]
        assert len(live) == p - 2  # node 7 held ranks 14 and 15
        assert (sum(s.corruptions_detected for s in live)
                == sum(s.corruptions_repaired for s in live))
        health = res.run.tracer.health()
        assert health["corruption_detected"] >= health["corruption_repaired"]
        # Seed 6 kills a rank between a detection and its re-fetch.
        assert health["corruption_detected"] > health["corruption_repaired"]

    def test_determinism(self):
        a = self._run(0.4)
        b = self._run(0.4)
        assert a.elapsed == b.elapsed
        assert (a.run.tracer.health()["corruption_injected"]
                == b.run.tracer.health()["corruption_injected"])
