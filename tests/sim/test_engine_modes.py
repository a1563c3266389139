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
from repro.sim.engine import SimulationError

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


# -- incremental reallocation: tie-heavy soups and bookkeeping traps -------
#
# The default allocator replays the previous fill and re-decides only the
# routes around changed links.  Equal shares are where the replay's order
# key (smallest first-flow seq among a link's routes, then the link's
# position in that route) decides the bottleneck, and continuous random
# bandwidths almost never produce bitwise-equal shares — so these soups
# draw everything from small dyadic pools.

@st.composite
def _tie_soups(draw):
    """Tie-dominated flow soups over 2-4 disjoint link groups.

    Bandwidths come from {1, 2, 4} and sizes from a two-value pool; starts
    sit on a 0.5 grid.  Every soup also carries a path that repeats a
    link, a same-instant identical pair (a carrier under aggregation)
    whose *first* member is aborted mid-flight, further random aborts, and
    a ``set_bandwidth`` brownout that is later lifted.
    """
    n_groups = draw(st.integers(min_value=2, max_value=4))
    groups, bandwidths = [], []
    for _ in range(n_groups):
        width = draw(st.integers(min_value=1, max_value=3))
        groups.append(list(range(len(bandwidths), len(bandwidths) + width)))
        bandwidths += [draw(st.sampled_from([1.0, 2.0, 4.0]))
                       for _ in range(width)]
    sizes = [draw(st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0, 8.0]))
             for _ in range(2)]
    flows = []
    for _ in range(draw(st.integers(min_value=2, max_value=12))):
        group = draw(st.sampled_from(groups))
        width = draw(st.integers(min_value=1, max_value=len(group)))
        path = tuple(draw(st.permutations(group))[:width])
        flows.append((draw(st.sampled_from(sizes)), path,
                      draw(st.integers(min_value=0, max_value=6)) * 0.5))
    group = draw(st.sampled_from(groups))
    flows.append((draw(st.sampled_from(sizes)),
                  (group[0], group[-1], group[0]),
                  draw(st.integers(min_value=0, max_value=4)) * 0.5))
    twin = (draw(st.sampled_from(sizes)), tuple(draw(st.sampled_from(groups))),
            draw(st.integers(min_value=0, max_value=4)) * 0.5)
    flows += [twin, twin]
    aborts = [(len(flows) - 2,
               twin[2] + draw(st.integers(min_value=1, max_value=4)) * 0.25)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        aborts.append((draw(st.integers(min_value=0, max_value=len(flows) - 1)),
                       draw(st.integers(min_value=0, max_value=12)) * 0.25))
    victim = draw(st.integers(min_value=0, max_value=len(bandwidths) - 1))
    low = draw(st.sampled_from([0.5, 1.0, 2.0]))
    t_low = draw(st.integers(min_value=0, max_value=8)) * 0.25
    t_back = t_low + draw(st.integers(min_value=1, max_value=8)) * 0.25
    return bandwidths, flows, aborts, (victim, low, t_low, t_back)


def _run_tie_soup(soup, allocator="incremental", **modes):
    bandwidths, flow_specs, aborts, (victim, low, t_low, t_back) = soup
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

    def brownout():
        yield Timeout(t_low)
        net.set_bandwidth(links[victim], low)
        yield Timeout(t_back - t_low)
        net.set_bandwidth(links[victim], bandwidths[victim])

    eng.spawn(launcher())
    eng.spawn(aborter())
    eng.spawn(brownout())
    eng.run()
    assert net.active_flow_count == 0
    return {
        "completions": tuple(sorted(completions.items())),
        "bytes": tuple(link.bytes_carried for link in links),
        "final_now": eng.now,
        "completed": net.completed_flows,
        "aborted": net.aborted_flows,
    }


def _tie_outcome(soup, **kwargs):
    # A path that repeats a link is charged per crossing but counted once
    # in the link's fair share, so a shared repeated link can run out of
    # capacity ("allocated zero rate").  Both allocators must then fail
    # the same way at the same flow.
    try:
        return _run_tie_soup(soup, **kwargs)
    except SimulationError as exc:
        return ("SimulationError", str(exc))


@given(_tie_soups())
@settings(max_examples=60, deadline=None)
def test_tie_heavy_soups_match_reference_exactly(soup):
    ref = _tie_outcome(soup, allocator="reference")
    assert _tie_outcome(soup) == ref
    assert _tie_outcome(soup, fast_forward=False) == ref  # routes, no carriers


def _timeline(allocator, script, n_links, bandwidth=4.0):
    """Run ``script(net, links, start)`` and return what must match the
    reference: every completion instant and every link's byte count."""
    eng, net = _build(allocator=allocator)
    links = [Link(f"l{i}", bandwidth) for i in range(n_links)]
    completions: dict[str, float] = {}

    def start(size, path, label):
        done = net.transfer(size, [links[i] for i in path], label=label)
        done.add_callback(
            lambda ev: completions.__setitem__(label, eng.now))
        return done

    eng.spawn(script(net, links, start))
    eng.run()
    assert net.active_flow_count == 0
    return (tuple(sorted(completions.items())),
            tuple(link.bytes_carried for link in links), net)


def _assert_matches_reference(script, n_links, bandwidth=4.0):
    ref = _timeline("reference", script, n_links, bandwidth)
    got = _timeline("incremental", script, n_links, bandwidth)
    assert got[:2] == ref[:2]
    return got[2]


class TestReplayBookkeeping:
    """Each case broke an incremental-replay prototype until handled; all
    are checked against the reference allocator with ``==``."""

    def test_one_of_two_components_changes(self):
        # One flush fills two disjoint components (links 0-1 and 2-3);
        # later passes touch one of them at a time, a capacity change
        # re-fills component A alone (leaving component B's old rounds in
        # the earlier fill), and a bridge finally joins the two.
        def script(net, links, start):
            start(6.0, (0, 1), "a1")
            start(3.0, (0,), "a2")
            start(8.0, (2, 3), "b1")
            start(2.0, (3,), "b2")
            yield Timeout(0.5)
            start(2.0, (1,), "a3")
            yield Timeout(0.25)
            net.set_bandwidth(links[1], 2.0)
            yield Timeout(0.25)
            start(4.0, (2,), "b3")
            yield Timeout(0.5)
            start(3.0, (1, 2), "bridge")
            yield Timeout(0.5)
            net.set_bandwidth(links[1], 4.0)
            start(1.0, (3,), "b4")

        _assert_matches_reference(script, 4)

    def test_path_reappears_after_a_contended_pass(self):
        # p1 shares link 1 with q, so a fill decides its route; when p1
        # completes, its callback starts p2 on the very same path before
        # the next pass runs.
        def script(net, links, start):
            start(20.0, (1,), "q")
            p1 = start(4.0, (0, 1), "p1")
            p1.add_callback(lambda ev: start(6.0, (0, 1), "p2"))
            yield Timeout(1.0)
            start(2.0, (0,), "r")

        _assert_matches_reference(script, 2)

    def test_path_reappears_through_the_uncontended_join(self):
        # q leaves first, so p1 ends alone on its path and its departure
        # runs no pass; p2 then starts on the same path through the
        # uncontended-join fast path, and r later contends with it.
        def script(net, links, start):
            start(2.0, (1,), "q")
            p1 = start(8.0, (0, 1), "p1")
            p1.add_callback(lambda ev: start(4.0, (0, 1), "p2"))
            yield Timeout(3.5)
            start(3.0, (1,), "r")
            start(1.0, (0,), "s")

        _assert_matches_reference(script, 2)

    def test_carrier_first_member_abort_moves_the_order_key(self):
        # m0 and m1 merge into one carrier on link 0; f shares their path
        # but started between them.  Aborting m0 hands the carrier m1's
        # seq, so the route's first flow becomes f and link 0's order key
        # moves from after link 1's (k's route) to before it.  Both links
        # then tie at 4/3, and which one freezes the coupling flow b first
        # decides the last bit of every later share.
        def script(net, links, start):
            start(0.5, (0,), "t0")
            m0 = start(8.0, (0,), "m0")
            start(9.0, (0,), "f")
            start(10.0, (1,), "k")
            start(8.0, (0,), "m1")
            start(12.0, (0, 1), "b")
            start(11.0, (1,), "k2")
            yield Timeout(1.0)
            net.abort(m0)

        _assert_matches_reference(script, 2)

    def test_replay_touches_fewer_flows_than_reference(self):
        # Eight flows from two senders (links 0 and 1) fan into one NIC
        # (link 2) and depart one by one.  The senders are slower than the
        # NIC's fair share, so when one sender's flow leaves, the other
        # sender's round is replayed rather than re-decided: a pass touches
        # at most two rounds and two routes, where the reference allocator
        # touches every active flow.
        def script(net, links, start):
            links[0].bandwidth = 1.0
            links[1].bandwidth = 2.0
            for i in range(8):
                start(1.0 + 0.5 * i, (i % 2, 2), f"f{i}")
            yield Timeout(0.0)

        touches = {}
        for allocator in ("reference", "incremental"):
            _t, _b, net = _timeline(allocator, script, 3, bandwidth=64.0)
            touches[allocator] = (net.reallocations, net.realloc_flow_touches)
        assert touches["incremental"][0] == touches["reference"][0] > 4
        assert touches["incremental"][1] < touches["reference"][1]
        _assert_matches_reference(script, 3, bandwidth=64.0)

    def test_capacity_change_brings_back_a_left_out_link(self):
        # p's own link 0 (bandwidth 3) is left out of fills while link 1
        # (bandwidth 2, shared with q) dominates it.  Raising link 1 to 8
        # makes link 0 p's bottleneck (p at 3, q at 5); lowering it again
        # leaves link 0 out once more.
        rates = []

        def script(net, links, start):
            links[0].bandwidth = 3.0
            links[1].bandwidth = 2.0
            start(12.0, (0, 1), "p")
            start(16.0, (1,), "q")
            yield Timeout(0.5)
            net.set_bandwidth(links[1], 8.0)
            yield Timeout(0.25)
            rates.append(sorted(net.flow_rates()))
            yield Timeout(0.75)
            net.set_bandwidth(links[1], 2.0)

        _assert_matches_reference(script, 2)
        assert rates == [[("p", 3.0), ("q", 5.0)]] * 2
