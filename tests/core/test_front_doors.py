"""The six ``*_multiply`` front doors share one run routine: what every
one of them guarantees, checked through each of them."""

import pytest

from repro.baselines import (cannon_multiply, fox_multiply, pdgemm_multiply,
                             summa_multiply)
from repro.bench import run_matmul
from repro.core import SrummaOptions, hierarchical_multiply, srumma_multiply
from repro.machines import IBM_SP, LINUX_MYRINET
from repro.sim.cluster import Machine
from repro.sim.faults import FaultPlan, LinkBrownout, NodeCrash

FRONT_DOORS = {
    "srumma": srumma_multiply,
    "summa": summa_multiply,
    "pdgemm": pdgemm_multiply,
    "cannon": cannon_multiply,
    "fox": fox_multiply,
    "hierarchical": hierarchical_multiply,
}

# (front door, extra keyword arguments) per payload-mode case.
PAYLOAD_CASES = {
    "srumma": ("srumma", {}),
    "srumma-dynamic": ("srumma", {"options": SrummaOptions(dynamic=True)}),
    "srumma-TN": ("srumma", {"transa": True}),
    "srumma-TT": ("srumma", {"transa": True, "transb": True}),
    "summa": ("summa", {"kb": 8}),
    "pdgemm": ("pdgemm", {"nb": 8}),
    "pdgemm-TN": ("pdgemm", {"nb": 8, "transa": True}),
    "pdgemm-TT": ("pdgemm", {"nb": 8, "transa": True, "transb": True}),
    "cannon": ("cannon", {}),
    "fox": ("fox", {}),
    "hierarchical": ("hierarchical", {"kb": 8}),
}

# linux-myrinet: 8 two-CPU nodes; ibm-sp: two 16-CPU nodes whose remote
# gets are host-assisted.
PLATFORMS = {LINUX_MYRINET.name: (LINUX_MYRINET, 16), IBM_SP.name: (IBM_SP, 32)}


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("case", PAYLOAD_CASES)
def test_payload_modes_take_equal_time(case, platform):
    """Synthetic payload runs the real payload's schedule: bitwise-equal
    virtual time, no data."""
    door, kwargs = PAYLOAD_CASES[case]
    spec, nranks = PLATFORMS[platform]
    real, synth = (FRONT_DOORS[door](spec, nranks, 48, 40, 56,
                                     payload=payload, **kwargs)
                   for payload in ("real", "synthetic"))
    assert real.max_error < 1e-8 * 56
    assert synth.c is None and synth.max_error is None
    assert synth.elapsed == real.elapsed  # bitwise, no tolerance


def _brownout(elapsed: float) -> FaultPlan:
    return FaultPlan(brownouts=(
        LinkBrownout(node=3, t_start=0.2 * elapsed, t_end=0.6 * elapsed,
                     factor=0.1),))


@pytest.mark.parametrize("faults", ["healthy", "brownout"])
@pytest.mark.parametrize("door", FRONT_DOORS)
def test_engine_modes_off_take_equal_time(door, faults):
    """A prebuilt Machine with every engine mode off runs the stepped
    reference engine; each front door must time it bitwise like the
    default modes-on machine, also with a brownout landing mid-run."""
    multiply = FRONT_DOORS[door]
    nranks, n = 16, 256
    run = dict(payload="synthetic", verify=False)
    plan = None
    if faults == "brownout":
        healthy = multiply(LINUX_MYRINET, nranks, n, n, n, **run).elapsed
        plan = _brownout(healthy)
    on = multiply(LINUX_MYRINET, nranks, n, n, n, faults=plan, **run)
    off = multiply(Machine(LINUX_MYRINET, nranks, batched_dispatch=False,
                           fast_forward=False, aggregation=False),
                   nranks, n, n, n, faults=plan, **run)
    if plan is not None:
        assert on.elapsed > healthy  # the brownout actually bit
    assert on.elapsed == off.elapsed  # bitwise, no tolerance


def test_machine_must_match_nranks():
    with pytest.raises(ValueError, match="nranks"):
        summa_multiply(Machine(LINUX_MYRINET, 8), 4, 16, 16, 16)


@pytest.mark.parametrize("door", [d for d in FRONT_DOORS if d != "srumma"])
def test_crash_plans_rejected_without_recovery(door):
    """Only SRUMMA recovers from a node crash; every other algorithm is
    turned away before simulating instead of draining into a deadlock."""
    plan = FaultPlan(crashes=(NodeCrash(node=3, t_fail=1e-3),))
    with pytest.raises(ValueError, match=f"(?i){door} cannot recover"):
        FRONT_DOORS[door](LINUX_MYRINET, 16, 64, 64, 64, faults=plan)
    with pytest.raises(ValueError, match=f"(?i){door} cannot recover"):
        run_matmul(door, LINUX_MYRINET, 16, 64, faults=plan)


def test_plans_without_crashes_still_run_everywhere():
    # The resilience experiment degrades SUMMA and pdgemm with get loss.
    plan = FaultPlan(get_fail_prob=0.01, seed=3)
    for door in FRONT_DOORS:
        point = run_matmul(door, LINUX_MYRINET, 16, 64, faults=plan)
        assert point.elapsed > 0
