"""
Core invariants of the splitting engines over random shapes, data, step
sizes, round counts and graph kinds: the tracking identity, exact-prox
optimality and the certified inexact-prox tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddrs.algorithms import (
    SolverParams,
    ddrs_init,
    ddrs_step,
    epsilon_schedule,
    iddrs_step,
)
from ddrs.manifold import project_stiefel
from ddrs.metrics import tracking_residual
from ddrs.network import (
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    metropolis_weights,
)
from ddrs.problems import gen_synthetic

PROPERTY = settings(max_examples=30, deadline=None)

STEPS = 4


@st.composite
def runs(draw):
    """Synthetic agents on a random graph kind, parameters, a nearby start."""
    n = draw(st.integers(3, 8))
    r = draw(st.integers(1, 4))
    d = draw(st.integers(r, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(["ring", "erdos_renyi", "complete"]))
    if kind == "ring":
        graph = gen_ring(n)
    elif kind == "complete":
        graph = gen_complete(n)
    else:
        graph = gen_erdos_renyi(n, draw(st.floats(0.4, 1.0)), seed)
    data = gen_synthetic(n, draw(st.integers(d, 3 * d)), d, r,
                         draw(st.floats(0.3, 0.9)), seed)
    params = SolverParams(alpha=draw(st.floats(0.1, 10.0)),
                          t=draw(st.integers(1, 4)))
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((d, r))
    x0 = [project_stiefel(base + 0.05 * rng.standard_normal((d, r)))
          for _ in range(n)]
    return data.instances(), metropolis_weights(graph), params, x0


@pytest.mark.filterwarnings("ignore::ddrs.algorithms.ConfigurationWarning")
@PROPERTY
@given(runs())
def test_exact_steps_track_the_mean_and_solve_each_prox(run):
    problem, W, params, x0 = run
    stack = ddrs_init(problem, W, params, x0)
    for _ in range(STEPS):
        stack = ddrs_step(stack, problem, W, params)
        assert tracking_residual(stack) <= 1e-11
        for inst, s, x in zip(problem, stack.s, stack.x, strict=True):
            res = inst.residual(params.alpha, s, x)
            assert np.linalg.norm(res) <= 1e-10 * (1.0 + np.linalg.norm(s))


@pytest.mark.filterwarnings("ignore::ddrs.algorithms.ConfigurationWarning")
@PROPERTY
@given(runs())
def test_inexact_steps_track_the_mean_within_their_tolerances(run):
    problem, W, params, x0 = run
    stack = ddrs_init(problem, W, params, x0)
    for k in range(STEPS):
        stack = iddrs_step(stack, problem, W, params, k)
        assert tracking_residual(stack) <= 1e-11
        eps_k = epsilon_schedule(params.eps0, params.rho, k)
        assert stack.mu_sq.shape == (W.n,)
        assert np.all(stack.mu_sq <= eps_k)
