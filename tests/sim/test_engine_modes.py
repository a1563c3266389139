"""Exact equivalence of the large-rank engine modes.

PR 1 proved the incremental allocator bit-for-bit against the reference
sweep.  The scaling modes added on top — batched event dispatch
(``Engine(batched_dispatch=...)``), analytic fast-forward of coincident
completions (``FlowNetwork(fast_forward=...)``), and per-class flow
aggregation (``FlowNetwork(aggregation=...)``) — carry the same contract:
every observable (completion instants, per-link byte counters, final
virtual time, mid-run rates) must be **bitwise identical** (``==`` on
floats, no tolerance) across every mode combination, including under
aborts and mid-flight bandwidth changes.  These tests extend the PR 1
oracle to the full mode matrix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, FlowNetwork, Link, Timeout

# Every switch combination that must agree with the reference sweep.  The
# reference allocator itself forces all modes off, so it anchors the matrix.
MODE_MATRIX = [
    dict(batched=False, fast_forward=False, aggregation=False),  # stepped
    dict(batched=True, fast_forward=False, aggregation=False),
    dict(batched=False, fast_forward=True, aggregation=False),
    dict(batched=False, fast_forward=False, aggregation=True),
    dict(batched=True, fast_forward=True, aggregation=True),     # default
]


def _build(allocator="incremental", batched=True, fast_forward=True,
           aggregation=True):
    eng = Engine(batched_dispatch=batched)
    net = FlowNetwork(eng, allocator=allocator, fast_forward=fast_forward,
                      aggregation=aggregation)
    return eng, net


@st.composite
def _flow_soups(draw):
    """Random links, timed flow arrivals, and timed cancellations.

    Start times sit on a coarse grid so same-instant arrivals — the
    aggregation (carrier-merge) path — occur routinely, and sizes repeat
    from a small pool so identical (path, size) classes actually form.
    """
    n_links = draw(st.integers(min_value=1, max_value=6))
    bandwidths = [draw(st.floats(min_value=0.5, max_value=800.0))
                  for _ in range(n_links)]
    size_pool = [draw(st.floats(min_value=1.0, max_value=15_000.0))
                 for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    n_flows = draw(st.integers(min_value=1, max_value=14))
    flows = []
    for _ in range(n_flows):
        size = draw(st.sampled_from(size_pool))
        path_len = draw(st.integers(min_value=1, max_value=min(3, n_links)))
        path = tuple(draw(st.permutations(range(n_links)))[:path_len])
        start = draw(st.integers(min_value=0, max_value=6)) * 0.5
        flows.append((size, path, start))
    # Cancellations: (flow index, abort time) — some land before the flow
    # starts (no-op), some mid-flight, some after completion (no-op).
    n_aborts = draw(st.integers(min_value=0, max_value=4))
    aborts = [(draw(st.integers(min_value=0, max_value=n_flows - 1)),
               draw(st.integers(min_value=0, max_value=8)) * 0.75)
              for _ in range(n_aborts)]
    return bandwidths, flows, aborts


def _run_soup(bandwidths, flow_specs, aborts, allocator="incremental",
              **modes):
    eng, net = _build(allocator=allocator, **modes)
    links = [Link(f"l{i}", bw) for i, bw in enumerate(bandwidths)]
    completions: dict[int, float] = {}
    events: dict[int, object] = {}

    def launcher():
        t = 0.0
        for idx, (size, path, start) in sorted(enumerate(flow_specs),
                                               key=lambda kv: kv[1][2]):
            if start > t:
                yield Timeout(start - t)
                t = start
            done = net.transfer(size, [links[i] for i in path], label=str(idx))
            events[idx] = done
            done.add_callback(
                lambda ev, idx=idx: completions.__setitem__(idx, eng.now))

    def aborter():
        t = 0.0
        for idx, at in sorted(aborts, key=lambda kv: kv[1]):
            if at > t:
                yield Timeout(at - t)
                t = at
            done = events.get(idx)
            if done is not None and not done.triggered:
                net.abort(done)

    eng.spawn(launcher())
    if aborts:
        eng.spawn(aborter())
    eng.run()
    assert net.active_flow_count == 0
    return {
        "completions": tuple(sorted(completions.items())),
        "bytes": tuple(link.bytes_carried for link in links),
        "final_now": eng.now,
        "completed": net.completed_flows,
        "aborted": net.aborted_flows,
    }


@given(_flow_soups())
@settings(max_examples=100, deadline=None)
def test_mode_matrix_matches_reference_exactly(soup):
    bandwidths, flow_specs, aborts = soup
    ref = _run_soup(bandwidths, flow_specs, aborts, allocator="reference")
    for modes in MODE_MATRIX:
        got = _run_soup(bandwidths, flow_specs, aborts, **modes)
        assert got == ref, f"divergence with modes {modes}"


@given(_flow_soups())
@settings(max_examples=60, deadline=None)
def test_fast_forward_with_brownouts_matches_reference(soup):
    """A bandwidth change landing inside a fast-forwarded interval must
    invalidate the scheduled analytic jump: results stay bitwise equal to
    the reference sweep with the change applied step-by-step."""
    bandwidths, flow_specs, _ = soup

    def run(allocator, **modes):
        eng, net = _build(allocator=allocator, **modes)
        links = [Link(f"l{i}", bw) for i, bw in enumerate(bandwidths)]
        completions = {}

        def launcher():
            t = 0.0
            for idx, (size, path, start) in sorted(enumerate(flow_specs),
                                                   key=lambda kv: kv[1][2]):
                if start > t:
                    yield Timeout(start - t)
                    t = start
                done = net.transfer(size, [links[i] for i in path],
                                    label=str(idx))
                done.add_callback(
                    lambda ev, idx=idx: completions.__setitem__(idx, eng.now))

        def brownout():
            # Degrade link 0 mid-run, restore later — instants chosen off
            # the arrival grid so they land inside settled intervals.
            yield Timeout(0.8)
            net.set_bandwidth(links[0], bandwidths[0] * 0.125)
            yield Timeout(1.3)
            net.set_bandwidth(links[0], bandwidths[0])

        eng.spawn(launcher())
        eng.spawn(brownout())
        eng.run()
        return {
            "completions": tuple(sorted(completions.items())),
            "bytes": tuple(link.bytes_carried for link in links),
            "final_now": eng.now,
        }

    ref = run("reference")
    for modes in MODE_MATRIX:
        assert run("incremental", **modes) == ref, \
            f"brownout divergence with modes {modes}"


class TestBrownoutInsideFastForwardedInterval:
    """The deterministic core case of the satellite: identical same-instant
    transfers merge into one carrier whose completion is one analytic jump
    away; a brownout strikes strictly inside that interval."""

    def _scenario(self, allocator, batched=True, fast_forward=True,
                  aggregation=True):
        eng, net = _build(allocator=allocator, batched=batched,
                          fast_forward=fast_forward, aggregation=aggregation)
        link = Link("nic", 100.0)
        other = Link("nic2", 100.0)
        completions = {}

        def work():
            # Four identical transfers born at one instant: the aggregated
            # path merges them; all four complete at the bitwise-same time,
            # which the fast-forward path schedules as one cohort.
            for i in range(4):
                done = net.transfer(400.0, [link], label=f"m{i}")
                done.add_callback(
                    lambda ev, i=i: completions.__setitem__(f"m{i}", eng.now))
            # A bystander on a disjoint link: its completion must be
            # untouched by the brownout.
            done = net.transfer(100.0, [other], label="solo")
            done.add_callback(
                lambda ev: completions.__setitem__("solo", eng.now))
            yield Timeout(0.0)

        def brownout():
            # The carrier's jump spans [0, 16]; strike at t=5, lift at t=9.
            yield Timeout(5.0)
            net.set_bandwidth(link, 10.0)
            yield Timeout(4.0)
            net.set_bandwidth(link, 100.0)

        eng.spawn(work())
        eng.spawn(brownout())
        eng.run()
        return completions, link.bytes_carried, other.bytes_carried, eng.now

    def test_brownout_invalidates_the_jump(self):
        ref = self._scenario("reference")
        for modes in MODE_MATRIX:
            got = self._scenario("incremental", **modes)
            assert got == ref, f"divergence with modes {modes}"

    def test_timeline_is_the_degraded_one(self):
        completions, carried, other_carried, final = self._scenario(
            "incremental")
        # 4 x 400 B on 100 B/s: healthy finish would be t=16.  Browned out
        # to 10 B/s over [5, 9]: 5*100 + 4*10 = 540 B done, 1060 B left at
        # 100 B/s -> t = 9 + 10.6 = 19.6.  A stale analytic jump would have
        # fired at 16.
        assert completions["m0"] == pytest.approx(19.6)
        assert all(completions[f"m{i}"] == completions["m0"] for i in range(4))
        assert completions["solo"] == pytest.approx(1.0)
        assert carried == pytest.approx(1600.0)
        assert other_carried == pytest.approx(100.0)
        assert final == completions["m0"]
