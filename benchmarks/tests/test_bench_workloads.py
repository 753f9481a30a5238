import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import workloads
from ddrs.harness import preset

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_names_the_steady_workloads_and_why():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS.values()
                                 if w.name != "er06-monitored"]


def test_seed_zero_is_the_preset_and_seeds_change_only_the_graph():
    er06 = workloads.WORKLOADS["er06-monitored"]
    base = preset(workloads.PRESET)
    assert workloads.instance_config(er06, 0) == base
    other = workloads.instance_config(er06, 3)
    assert other.graph.seed == base.graph.seed + 3
    assert other.problem == base.problem and other.master_seed == base.master_seed
    with pytest.raises(ValueError):
        workloads.instance_overrides(er06, -1)


@pytest.mark.parametrize("seed, hit", [(0, 243), (1, 243)])
def test_er06_reaches_the_targets_through_the_benchmark_path(tmp_path, seed, hit):
    result = bench.run_once(workloads.WORKLOADS["er06-monitored"], seed, 0, tmp_path)
    assert result["problems"] == []
    assert result["iters_to_target"] == hit
    assert result["iterations"] == 500
    assert 0 < result["setup_s"] < result["run_s"]
    assert 0 < result["time_to_target_s"] < result["iter_ms"] * 500 / 1e3


def test_without_library_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "er06-monitored",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "library sources not found" in proc.stderr


def test_traced_run_prints_every_per_layer_metric_and_writes_spans(tmp_path, capsys):
    spans_path = tmp_path / "spans.jsonl"
    assert bench.main(["--workload", "er06-monitored", "--seconds", "0.01",
                       "--trace", "1", "--spans", str(spans_path)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert last["correct"] and last["attempted"] == 2 and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}
    m = {name: entry["value"] for name, entry in last["metrics"].items()}
    # 2n prox calls per iteration: the step's n and dre_value's n.
    assert m["problems.prox.calls_per_iter"] == 16
    assert m["network.mix.solver_calls_per_iter"] == 2
    assert m["manifold.tube_distance.calls_per_iter"] == 8
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert sum(s["name"] == "algorithms.step" for s in spans) == 500
