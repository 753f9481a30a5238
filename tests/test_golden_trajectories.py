"""
Final iterates of short runs, checked against arrays saved from an earlier
engine.

A refactor or a speed-up must reproduce the trajectories to 1e-10.  Each
case runs the solver loop of ``ddrs run`` without monitoring and compares
the final ``x`` stack with ``tests/data/golden_<case>.npy``.

Regenerate the arrays only when a change of trajectory is intended, and
only those of the cases it changes::

    PYTHONPATH=src python tests/test_golden_trajectories.py er06_iddrs

With no case names every array is rewritten.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from ddrs.algorithms import baseline_gt_step, ddrs_step, iddrs_step
from ddrs.harness import build_run, preset, start_run

DATA = Path(__file__).resolve().parent / "data"
PRESET = "synthetic-er06-t10"
TOL = 1e-10

CASES = {
    "er06_ddrs": "algorithm.kind = ddrs\n",
    "er06_iddrs": "algorithm.kind = iddrs\n",
    "er06_baseline_gt": "algorithm.kind = baseline_gt\n",
    "d64_ddrs": "algorithm.kind = ddrs\nproblem.d = 64\nmax_iters = 60\n",
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
    x = final_x(CASES[case])
    assert x.shape == golden.shape
    assert float(np.abs(x - golden).max()) <= TOL


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit("unknown case(s): %s; known: %s"
                 % (", ".join(unknown), ", ".join(sorted(CASES))))
    DATA.mkdir(exist_ok=True)
    for name in names:
        np.save(DATA / ("golden_%s.npy" % name), final_x(CASES[name]))
