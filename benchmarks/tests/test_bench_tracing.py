import json
import sys
import types
from pathlib import Path

import pytest

import tracing
from tracing import Tracer, covered_ns, installed, layer_metrics, self_times

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def span(name, start, end, parent=-1, note=None):
    return (name, start, end, parent, note)


def test_covered_ns_merges_overlaps_and_clips():
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(2, 4), (6, 9)], 0, 10) == 5
    assert covered_ns([(2, 6), (4, 8)], 0, 10) == 6
    assert covered_ns([(1, 3), (2, 5), (2, 4)], 0, 10) == 4
    assert covered_ns([(-5, 3), (8, 20)], 0, 10) == 5
    assert covered_ns([(2, 4), (12, 14)], 0, 10) == 2


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("step", 0, 100),
        span("prox", 10, 30, parent=0),
        span("mix", 40, 70, parent=0),
        span("inner", 45, 60, parent=2),
    ]
    assert self_times(spans) == [100 - 20 - 30, 20, 30 - 15, 15]


def test_self_time_counts_overlapping_children_once():
    spans = [span("p", 0, 50), span("a", 10, 30, 0), span("b", 20, 40, 0)]
    assert self_times(spans)[0] == 50 - 30


def test_tracer_records_nesting_and_notes():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    mix = tracer.wrap("mix", lambda W, t, X: X, note=tracing._rounds)
    assert outer(1) == 4
    assert mix(None, 7, 3) == 3
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, None), ("mix", -1, 7)]
    for _, start, end, _, _ in tracer.spans:
        assert end >= start


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer.spans[0][0] == "boom" and tracer._open == []


class Holder:
    def value(self):
        return 3


def test_installed_skips_missing_targets_and_restores(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.work = lambda: 5
    module.Holder = Holder
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    original = module.work
    targets = (
        ("fake_layer", "work", "layer.work", None),
        ("fake_layer", "gone", "layer.gone", None),
        ("fake_layer", "Holder.value", "layer.value", None),
        ("no_such_module", "f", "layer.f", None),
    )
    tracer = Tracer()
    with installed(tracer, targets) as missing:
        assert module.work() == 5
        assert Holder().value() == 3
    assert missing == ["fake_layer.gone", "no_such_module.f"]
    assert [s[0] for s in tracer.spans] == ["layer.work", "layer.value"]
    assert module.work is original
    assert not hasattr(Holder.value, "__wrapped__")


def test_installed_restores_after_an_error(monkeypatch):
    module = types.ModuleType("fake_layer2")
    module.work = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_layer2", module)
    original = module.work
    with pytest.raises(KeyError):
        with installed(Tracer(), (("fake_layer2", "work", "w", None),)):
            raise KeyError("stop")
    assert module.work is original


def synthetic_run():
    """Two iterations: set-up, an initial record, steps and monitors."""
    return [
        span("harness.run_experiment", 0, 1000),                     # 0
        span("harness.build_run", 0, 100, 0),                        # 1
        span("manifold.project_stiefel", 10, 20, 1),                 # 2 set-up
        span("metrics.dre_value", 110, 150, 0),                      # 3 k=0 record
        span("problems.prox", 120, 130, 3),                          # 4
        # iteration 1
        span("algorithms.step", 200, 300, 0),                        # 5
        span("problems.prox_inexact", 210, 240, 5),                  # 6
        span("problems.prox", 220, 230, 6),                          # 7 fallback
        span("network.mix", 250, 260, 5, 10),                        # 8
        span("manifold.project_stiefel", 270, 280, 5),               # 9
        span("metrics.neighborhood_report", 310, 350, 0),            # 10
        span("network.mix", 320, 330, 10, 10),                       # 11
        span("manifold.project_stiefel", 335, 345, 10),              # 12
        # iteration 2
        span("algorithms.step", 400, 500, 0),                        # 13
        span("problems.prox_inexact", 410, 440, 13),                 # 14
        span("network.mix", 450, 460, 13, 10),                       # 15
        span("metrics.dre_value", 510, 590, 0),                      # 16
        span("problems.prox", 520, 540, 16),                         # 17
        span("manifold.subspace_distance", 590, 600, 0),             # 18
        span("harness.write_records", 1100, 1300),                   # 19
    ]


def test_layer_metrics_on_a_synthetic_run():
    m = layer_metrics(synthetic_run(), d=4, r=2, two_edges=6)
    # Loop window is [200, 600]: set-up and the k=0 record are outside it.
    assert m["problems.prox.calls_per_iter"] == 1.0        # spans 7 and 17
    assert m["problems.prox.us_per_call"] == pytest.approx(15 / 1e3)
    assert m["problems.prox_inexact.calls_per_iter"] == 1.0
    assert m["problems.prox_inexact.fallback_frac"] == 0.5
    assert m["network.mix.solver_calls_per_iter"] == 1.0
    assert m["network.mix.monitor_calls_per_iter"] == 0.5
    assert m["network.bytes_per_iter"] == 2 * 10 * 6 * 4 * 2 * 8 / 2
    assert m["manifold.project_stiefel.solver_calls_per_iter"] == 0.5
    assert m["manifold.project_stiefel.monitor_calls_per_iter"] == 0.5
    assert m["algorithms.step.us_per_call"] == pytest.approx(0.1)
    # step 5: 100 - 30 - 10 - 10 = 50; step 13: 100 - 30 - 10 = 60
    assert m["algorithms.step.self_us_per_call"] == pytest.approx(0.055)
    assert m["metrics.dre_value.us_per_call"] == pytest.approx(0.08)
    # monitors 10, 16, 18 cover 40 + 80 + 10 of the 400 ns loop
    assert m["metrics.monitor_share"] == pytest.approx(130 / 400)
    # steps and monitors cover 330 of 400 ns
    assert m["trace.unaccounted_share"] == pytest.approx(70 / 400)
    assert m["harness.write_records.ms"] == pytest.approx(200 / 1e6)


def test_layer_metrics_without_calls_reports_zeros():
    m = layer_metrics([], d=4, r=2, two_edges=6)
    assert m and all(value == 0.0 for value in m.values())


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import bench

    spec = json.loads(BENCHMARK_JSON.read_text())
    per_layer = set(layer_metrics([], 1, 1, 0)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: bench.per_layer_unit(name) for name in per_layer}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(bench.END_TO_END)
