"""
Final iterates and recorded runs of short runs, checked against files
saved from an earlier engine.

A refactor or a speed-up must reproduce the trajectories to 1e-10.  Each
``CASES`` case runs the solver loop of ``ddrs run`` without monitoring and
compares the final ``x`` stack with ``tests/data/golden_<case>.npy``.
Each ``RUN_CASES`` case runs ``run_experiment`` and compares its records
and summary with ``tests/data/golden_<case>.csv`` (``write_records``) and
``golden_<case>.summary.json``, both saved with ``wall_ns`` zeroed: ``k``,
the summary's keys and their order, and every string and integer exactly,
every float to 1e-10 relative.

Regenerate the files only when a change of trajectory or of what a run
records is intended, and only those of the cases it changes::

    PYTHONPATH=src python tests/test_golden_trajectories.py er06_iddrs

With no case names every file is rewritten.
"""

import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ddrs.algorithms import (
    ConfigurationWarning,
    baseline_gt_step,
    ddrs_step,
    iddrs_step,
)
import ddrs.harness as harness
from ddrs.harness import (
    build_run,
    preset,
    read_records,
    run_experiment,
    start_run,
    write_records,
)

DATA = Path(__file__).resolve().parent / "data"
PRESET = "synthetic-er06-t10"
TOL = 1e-10

CASES = {
    "er06_ddrs": "algorithm.kind = ddrs\n",
    "er06_iddrs": "algorithm.kind = iddrs\n",
    "er06_baseline_gt": "algorithm.kind = baseline_gt\n",
    "d64_ddrs": "algorithm.kind = ddrs\nproblem.d = 64\nmax_iters = 60\n",
}

# The warnings each case raises; the d = 64 start lies outside the
# certified neighborhood.  Any other warning fails its case.
WARNINGS = {
    "d64_ddrs": ["initial consensus error 1.349e-01 exceeds the certified "
                 "bound 1.250e-01"],
}

# Recorded runs: every record of each engine, a sparse log, and an iDDRS
# step size that ends the run diverged after its first record.
RUN_CASES = {
    "run_er06_ddrs": "algorithm.kind = ddrs\nmax_iters = 40\n",
    "run_er06_iddrs": "algorithm.kind = iddrs\nmax_iters = 40\n",
    "run_er06_baseline_gt": "algorithm.kind = baseline_gt\nmax_iters = 40\n",
    "run_er06_ddrs_every7": "algorithm.kind = ddrs\nmax_iters = 40\n"
                            "log_every = 7\n",
    "run_er06_iddrs_diverged": "algorithm.kind = iddrs\nmax_iters = 40\n"
                               "beta_hat = 1e303\n",
}


def final_x(overrides):
    config = preset(PRESET, overrides)
    setup = build_run(config)
    stack, _ = start_run(config, setup)
    problem, W, params = setup.problem, setup.W, setup.params
    for k in range(config.max_iters):
        if config.algorithm.kind == "ddrs":
            stack = ddrs_step(stack, problem, W, params)
        elif config.algorithm.kind == "iddrs":
            stack = iddrs_step(stack, problem, W, params, k)
        else:
            stack = baseline_gt_step(stack, problem, W, params)
    return stack.x


@pytest.mark.parametrize("case", sorted(CASES))
def test_final_iterate_matches_golden(case):
    golden = np.load(DATA / ("golden_%s.npy" % case))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConfigurationWarning)
        x = final_x(CASES[case])
    assert [str(w.message) for w in caught] == WARNINGS.get(case, [])
    assert x.shape == golden.shape
    assert float(np.abs(x - golden).max()) <= TOL


def recorded_run(overrides):
    """``run_experiment``'s records and summary, with ``wall_ns`` zeroed."""
    records, summary = run_experiment(preset(PRESET, overrides))
    records = [dataclasses.replace(rec, wall_ns=0) for rec in records]
    if summary["final"] is not None:
        summary["final"]["wall_ns"] = 0
    return records, summary


def _assert_same(got, want, where):
    # Containers and their keys, in order; strings, integers and None
    # exactly; floats to TOL relative.
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], "%s.%s" % (where, key))
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, "%s[%d]" % (where, i))
    elif isinstance(want, float):
        assert (got == want or (math.isnan(got) and math.isnan(want))
                or math.isclose(got, want, rel_tol=TOL, abs_tol=0.0)), where
    else:
        assert got == want, where


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_recorded_run_matches_golden(case):
    records, summary = recorded_run(RUN_CASES[case])
    want_records = read_records(DATA / ("golden_%s.csv" % case))
    want_summary = json.loads(
        (DATA / ("golden_%s.summary.json" % case)).read_text(encoding="utf-8"))
    assert [rec.k for rec in records] == [rec.k for rec in want_records]
    _assert_same([dataclasses.asdict(rec) for rec in records],
                 [dataclasses.asdict(rec) for rec in want_records], "records")
    # Through JSON, as ddrs run writes it: tuples become lists.
    _assert_same(json.loads(json.dumps(summary)), want_summary, "summary")


@pytest.mark.parametrize("engine", ["ddrs", "iddrs", "baseline_gt"])
def test_a_run_calls_its_engine_step_once_per_iteration(monkeypatch, engine):
    overrides = "algorithm.kind = %s\nmax_iters = 40\n" % engine
    unpatched, _ = recorded_run(overrides)
    name = "%s_step" % engine
    step = getattr(harness, name)
    calls = []

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(harness, name, counting)
    records, summary = recorded_run(overrides)
    assert summary["status"] == "ok"
    assert len(calls) == 40
    assert records == unpatched


if __name__ == "__main__":
    known = {**CASES, **RUN_CASES}
    names = sys.argv[1:] or list(known)
    unknown = sorted(set(names) - set(known))
    if unknown:
        sys.exit("unknown case(s): %s; known: %s"
                 % (", ".join(unknown), ", ".join(sorted(known))))
    DATA.mkdir(exist_ok=True)
    for name in names:
        if name in CASES:
            np.save(DATA / ("golden_%s.npy" % name), final_x(CASES[name]))
            continue
        records, summary = recorded_run(RUN_CASES[name])
        write_records(records, DATA / ("golden_%s.csv" % name))
        with open(DATA / ("golden_%s.summary.json" % name), "w",
                  encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
