"""
Core invariants over random shapes, data, step sizes, round counts and
graph kinds: the splitting engines' tracking identity, exact-prox
optimality, certified inexact-prox tolerance and warm start, the
mean-preserving mix, and the tube distance as the distance to the
projection.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddrs.algorithms import (
    AgentStack,
    SolverParams,
    ddrs_init,
    ddrs_step,
    epsilon_schedule,
    iddrs_step,
)
from ddrs.manifold import manifold_constants, project_stiefel, tube_distance
from ddrs.metrics import neighborhood_report, tracking_residual
from ddrs.network import (
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    metropolis_weights,
    mix,
)
from ddrs.problems import gen_synthetic

PROPERTY = settings(max_examples=30, deadline=None)

STEPS = 4

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def graphs(draw, n, seed):
    """A ring, Erdos-Renyi or complete graph on n nodes."""
    kind = draw(st.sampled_from(["ring", "erdos_renyi", "complete"]))
    if kind == "ring":
        return gen_ring(n)
    if kind == "complete":
        return gen_complete(n)
    return gen_erdos_renyi(n, draw(st.floats(0.4, 1.0)), seed)


@st.composite
def runs(draw):
    """Synthetic agents on a random graph kind, parameters, a nearby start."""
    n = draw(st.integers(3, 8))
    r = draw(st.integers(1, 4))
    d = draw(st.integers(r, 12))
    seed = draw(seeds)
    graph = draw(graphs(n, seed))
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
        # Recomputed from the iterates, not taken from the step's record.
        for inst, s, x in zip(problem, stack.s, stack.x, strict=True):
            mu = inst.residual(params.alpha, s, x)
            assert float(np.vdot(mu, mu)) <= eps_k


@pytest.mark.filterwarnings("ignore::ddrs.algorithms.ConfigurationWarning")
@PROPERTY
@given(runs())
def test_inexact_steps_start_each_solve_at_the_agents_last_prox(run):
    problem, W, params, x0 = run
    stack = ddrs_init(problem, W, params, x0)
    for k in range(STEPS):
        starts = {}
        for i, inst in enumerate(problem):
            solve = inst.prox_inexact

            def spy(alpha, s, eps, x0=None, i=i, solve=solve):
                starts[i] = x0
                return solve(alpha, s, eps, x0=x0)

            inst.prox_inexact = spy
        try:
            previous = stack.x
            stack = iddrs_step(stack, problem, W, params, k)
        finally:
            for inst in problem:
                del inst.prox_inexact
        assert sorted(starts) == list(range(W.n))
        for i, start in starts.items():
            np.testing.assert_array_equal(start, previous[i])


@PROPERTY
@given(st.integers(3, 9), seeds, st.integers(0, 6),
       st.sampled_from([(), (5,), (6, 3), (2, 3, 4)]), st.data())
def test_mix_preserves_the_block_mean(n, seed, t, trailing, data):
    W = metropolis_weights(data.draw(graphs(n, seed)))
    X = np.random.default_rng(seed).standard_normal((n,) + trailing)
    gap = mix(W, t, X).mean(axis=0) - X.mean(axis=0)
    assert np.abs(gap).max() <= 1e-12 * (1.0 + np.abs(X).max())


@PROPERTY
@given(st.integers(1, 4), st.integers(0, 6), st.floats(1e-3, 1e3), seeds)
def test_tube_distance_is_the_distance_to_the_projection(r, extra, scale,
                                                         seed):
    d = r + extra
    M = scale * np.random.default_rng(seed).standard_normal((d, r))
    tube = tube_distance(M)
    tol = 1e-12 * (1.0 + np.linalg.norm(M))
    x = project_stiefel(M).mat
    assert abs(tube - np.linalg.norm(M - x)) <= tol
    # A one-agent stack whose step kept the singular values of M = x + d.
    x = x[None]
    stack = AgentStack(s=x, x=x, y=x, z=x, d=M - x,
                       z_sv=np.linalg.svd(M, compute_uv=False)[None])
    report = neighborhood_report(stack, manifold_constants(d, r), None, 1)
    assert abs(report.max_tube - tube) <= tol
