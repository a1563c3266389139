"""The module-to-layer table covers ``src/repro`` and the fold adds up."""

import json

import pytest
from conftest import BENCH, SRC, run_child

import layers
import run
from workloads import WORKLOADS

FUNCTIONS = list(layers.iter_functions(SRC))


def test_every_function_maps_to_exactly_one_layer():
    assert len(FUNCTIONS) > 500
    claims = {module: layers.matching_layers(module)
              for _, module, _, _ in FUNCTIONS}
    assert {m: c for m, c in claims.items() if len(c) != 1} == {}
    assert {c[0] for c in claims.values()} <= set(layers.LAYERS)


def test_numpy_folds_name_existing_functions():
    defined = {(module, qual) for _, module, qual, _ in FUNCTIONS}
    assert layers.NUMPY_FOLDED <= defined


class _FakeStats:
    """The part of ``pstats.Stats`` that ``fold`` reads."""

    def __init__(self, table):
        self.stats = table


def test_builtins_are_charged_to_their_callers_layer():
    engine_file = str(SRC / "repro" / "sim" / "engine.py")
    (line,) = [min(lines) for path, _, qual, lines in FUNCTIONS
               if qual == "Engine.run"]
    engine_run = (engine_file, line, "run")
    bench_loop = ("perfbench/workloads.py", 1, "run_direct")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    matmul = ("~", 0, "<method 'copy' of 'numpy.ndarray' objects>")
    table = {
        bench_loop: (1, 1, 0.5, 10.0, {}),
        engine_run: (1, 1, 2.0, 9.0, {bench_loop: (1, 1, 2.0, 9.0)}),
        # 3 s of heappop: 2 s from the engine, 1 s from the benchmark loop
        heappop: (30, 30, 3.0, 3.0, {engine_run: (20, 20, 2.0, 2.0),
                                     bench_loop: (10, 10, 1.0, 1.0)}),
        matmul: (5, 5, 4.0, 4.0, {engine_run: (5, 5, 4.0, 4.0)}),
    }
    out = layers.fold(_FakeStats(table), layers.LayerMap(SRC))
    assert out["sim.engine.self_s"] == pytest.approx(4.0)
    assert out["sim.engine.calls"] == 1
    assert out["numpy.self_s"] == pytest.approx(4.0)
    assert out["unattributed.self_s"] == pytest.approx(1.5)
    assert out["unattributed.share"] == pytest.approx(1.5 / 9.5)


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    """A reduced traced pass yields exactly BENCHMARK.json's per-layer
    names, layer shares sum to one, and the unattributed share is shown."""
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    for workload in WORKLOADS:
        base = run_child(workload, 2, tmp_path)
        traced = run_child(workload, 2, tmp_path, "--profile")
        metrics = run.per_layer_metrics(base, traced)
        assert set(metrics) == names, workload
        shares = [metrics[f"{layer}.share"]
                  for layer in layers.LAYERS + (layers.UNATTRIBUTED,)]
        assert sum(shares) == pytest.approx(1.0)
        assert 0 <= metrics["unattributed.share"] < 0.5
