"""
Core invariants over random shapes, data, step sizes, round counts and
graph kinds: the splitting engines' tracking identity, exact-prox
optimality, certified inexact-prox tolerance and extrapolated start, the
mean-preserving mix, polar optimality, the tube distance as the
distance to the projection, and the envelope at certified proxes within
its gap.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ddrs.algorithms import (
    AgentStack,
    SolverParams,
    ddrs_init,
    ddrs_step,
    epsilon_schedule,
    iddrs_step,
)
from ddrs.manifold import (
    _polar,
    manifold_constants,
    project_stiefel,
    tube_distance,
)
from ddrs.metrics import (
    dre_gap,
    dre_value,
    neighborhood_report,
    tracking_residual,
)
from ddrs.network import (
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    metropolis_weights,
    mix,
)
from ddrs.problems import DPCAInstance, gen_synthetic

from helpers import envelope_rounding, fresh_gram_product, random_stiefel_mat

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


def _system_residual_norm(inst, alpha, s, x):
    """``||s - M x||`` for the prox system M, from a fresh Gram product."""
    return float(np.linalg.norm(s - inst.apply_system(alpha, x,
                                                      inst._gram_apply(x))))


@pytest.mark.filterwarnings("ignore::ddrs.algorithms.ConfigurationWarning")
@PROPERTY
@given(runs())
def test_inexact_steps_start_no_worse_than_the_agents_last_prox(run):
    problem, W, params, x0 = run
    stack = ddrs_init(problem, W, params, x0)
    for k in range(STEPS + 2):
        starts = {}
        for i, inst in enumerate(problem):
            solve = inst.prox_inexact

            def spy(alpha, s, eps, x0=None, gx0=None, i=i, solve=solve):
                starts[i] = (s, x0, gx0)
                return solve(alpha, s, eps, x0=x0, gx0=gx0)

            inst.prox_inexact = spy
        try:
            previous = stack
            stack = iddrs_step(stack, problem, W, params, k)
        finally:
            for inst in problem:
                del inst.prox_inexact
        assert sorted(starts) == list(range(W.n))
        for i, (s, start, gstart) in starts.items():
            inst, x_k = problem[i], previous.x[i]
            if previous.gx is None:
                # Without certified products the start is the last prox.
                np.testing.assert_array_equal(start, x_k)
                assert gstart is None
                continue
            # The start's product stands in for its Gram product.
            rounding = 1e-13 * (1.0 + np.linalg.norm(inst.gram)) * (
                np.linalg.norm(start) + np.linalg.norm(x_k))
            assert np.linalg.norm(gstart - inst._gram_apply(start)) <= rounding
            bound = _system_residual_norm(inst, params.alpha, s, x_k)
            assert (_system_residual_norm(inst, params.alpha, s, start)
                    <= bound * (1.0 + 1e-12)
                    + (1.0 + params.alpha * inst.shift) * rounding)
    assert stack.dx.shape[1] == 2


@PROPERTY
@given(st.integers(3, 9), seeds, st.integers(0, 6),
       st.sampled_from([(), (5,), (6, 3), (2, 3, 4)]), st.data())
def test_mix_preserves_the_block_mean(n, seed, t, trailing, data):
    W = metropolis_weights(data.draw(graphs(n, seed)))
    X = np.random.default_rng(seed).standard_normal((n,) + trailing)
    gap = mix(W, t, X).mean(axis=0) - X.mean(axis=0)
    assert np.abs(gap).max() <= 1e-12 * (1.0 + np.abs(X).max())


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 6),
       st.floats(1e-2, 1e2), seeds)
def test_polar_factor_is_the_nearest_stiefel_point(n, r, extra, scale, seed):
    d = r + extra
    rng = np.random.default_rng(seed)
    M = scale * rng.standard_normal((n, d, r))
    Q, sv = _polar(M)
    tol = 1e-12 * (1.0 + np.abs(M).max())
    for block, q, block_sv in zip(M, Q, sv, strict=True):
        assert np.abs(q.T @ q - np.eye(r)).max() <= 1e-13
        own_q, own_sv = _polar(block)
        np.testing.assert_array_equal(q, own_q)
        np.testing.assert_array_equal(block_sv, own_sv)
        dist = np.linalg.norm(block - q)
        assert abs(dist - np.linalg.norm(block_sv - 1.0)) <= tol
        for _ in range(20):
            other = random_stiefel_mat(rng, d, r)
            assert dist <= np.linalg.norm(block - other) + tol


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
    stack = AgentStack(s=x, x=x, z=x, d=M - x,
                       z_sv=np.linalg.svd(M, compute_uv=False)[None])
    report = neighborhood_report(stack, manifold_constants(d, r), None, 1)
    assert abs(report.max_tube - tube) <= tol


# (n, d, r, log10(alpha L), log10 of the residual scale, spread, seed) at
# which the bound's value term dominates and the envelope's error exceeds
# the distance term (the V_i agree, so D is only what the residuals move
# it), and at which the distance term dominates and the error exceeds the
# value term (small alpha L, V_i far apart).
VALUE_TERM_CASE = (3, 4, 2, -1.0, -8.0, 0.0, 1)
DISTANCE_TERM_CASE = (3, 4, 2, -3.0, -6.0, 1.0, 1)


@PROPERTY
@example(*VALUE_TERM_CASE)
@example(*DISTANCE_TERM_CASE)
@given(st.integers(2, 4), st.integers(2, 8), st.integers(1, 8),
       st.floats(-3.0, 3.0), st.floats(-12.0, -3.0),
       st.sampled_from([0.0, 1.0]), seeds)
def test_the_envelope_at_certified_proxes_lies_within_its_gap(
        n, d, r, log_alpha_l, log_residual, spread, seed):
    r = min(r, d)
    rng = np.random.default_rng(seed)
    problem = [DPCAInstance(rng.standard_normal((3 * d, d))) for _ in range(n)]
    alpha = 10.0 ** log_alpha_l / max(inst.smoothness() for inst in problem)
    # Exact proxes whose V_i = (I - alpha H_i) x_i, H_i = shift_i I - G_i,
    # are a Stiefel point plus spread times noise, and the s they solve.
    y = random_stiefel_mat(rng, d, r)
    s = []
    for inst in problem:
        lift = (1.0 - alpha * inst.shift) * np.eye(d) + alpha * inst.gram
        assume(np.linalg.cond(lift) < 1e8)
        x = np.linalg.solve(lift, y + spread * rng.standard_normal((d, r)))
        s.append(inst.apply_system(alpha, x, fresh_gram_product(inst, x)))
    s = np.stack(s)
    # Certified proxes: the exact ones moved by (I + alpha H)^-1 mu, whose
    # residual against s is mu.
    mu = 10.0 ** log_residual * rng.standard_normal((n, d, r))
    x = np.stack([inst.prox(alpha, s_i) + inst.prox(alpha, mu_i)
                  for inst, s_i, mu_i in zip(problem, s, mu, strict=True)])
    gx = np.stack([fresh_gram_product(inst, x_i)
                   for inst, x_i in zip(problem, x, strict=True)])
    mu_sq = [float(np.vdot(mu_i, mu_i)) for mu_i in mu]
    gap = dre_gap(x, gx, mu_sq, problem, alpha)
    assert abs(dre_value(s, problem, alpha, x, gx)
               - dre_value(s, problem, alpha)) <= (
        gap + envelope_rounding(problem, alpha, x))
