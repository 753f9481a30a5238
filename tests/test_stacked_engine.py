"""
The stacked (n, d, r) engine against per-block references, over random
shapes, data and connected graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddrs.algorithms import (
    SolverParams,
    baseline_gt_init,
    baseline_gt_step,
    ddrs_init,
    ddrs_step,
    iddrs_step,
)
from ddrs.manifold import (
    RankDeficientError,
    _polar,
    _tangent_dir,
    manifold_constants,
    project_stiefel,
    tube_distance,
)
from ddrs.metrics import neighborhood_report
from ddrs.network import Graph, metropolis_weights, mix
from ddrs.problems import DPCAInstance

from helpers import (
    mix_per_agent,
    per_agent_baseline_step,
    per_agent_splitting_step,
    random_stiefel_mat,
    svd_polar,
    tangent_dir_per_block,
)

PROPERTY = settings(max_examples=25, deadline=None)

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def stack_shapes(draw):
    r = draw(st.integers(1, 4))
    return draw(st.integers(1, 6)), draw(st.integers(r, 8)), r


@st.composite
def connected_graphs(draw, n):
    """A random spanning tree plus a random subset of the other pairs."""
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges |= {e for e, k in zip(pairs, keep, strict=True) if k}
    return Graph(n, frozenset(edges))


@st.composite
def networks(draw):
    """Agents with random data blocks, a mixing matrix, a near-consensus start."""
    n = draw(st.integers(2, 5))
    r = draw(st.integers(1, 3))
    d = draw(st.integers(r, 6))
    W = metropolis_weights(draw(connected_graphs(n)))
    rng = np.random.default_rng(draw(seeds))
    problem = [DPCAInstance(rng.standard_normal((rng.integers(2, 9), d)))
               for _ in range(n)]
    base = random_stiefel_mat(rng, d, r)
    x0 = [project_stiefel(base + 0.05 * rng.standard_normal((d, r)))
          for _ in range(n)]
    return problem, W, x0


@PROPERTY
@given(stack_shapes(), seeds)
def test_batched_polar_matches_per_block_projection(shape, seed):
    M = np.random.default_rng(seed).standard_normal(shape)
    Q, sv = _polar(M)
    for i in range(shape[0]):
        assert np.abs(Q[i] - svd_polar(M[i])).max() <= 1e-12
        assert np.abs(sv[i] - np.linalg.svd(M[i], compute_uv=False)).max() <= 1e-12


@PROPERTY
@given(stack_shapes(), seeds)
def test_polar_distance_is_singular_value_gap(shape, seed):
    M = np.random.default_rng(seed).standard_normal(shape)
    Q, sv = _polar(M)
    dist = np.linalg.norm(M - Q, axis=(1, 2))
    gap = np.linalg.norm(sv - 1.0, axis=1)
    assert np.abs(dist - gap).max() <= 1e-12 * (1.0 + np.abs(M).max())


@PROPERTY
@given(stack_shapes(), seeds)
def test_stacked_tangent_dir_matches_per_block(shape, seed):
    n, d, r = shape
    rng = np.random.default_rng(seed)
    x = np.stack([random_stiefel_mat(rng, d, r) for _ in range(n)])
    v = rng.standard_normal(shape)
    out = _tangent_dir(x, v)
    for i in range(n):
        assert np.abs(out[i] - tangent_dir_per_block(x[i], v[i])).max() <= 1e-12


def test_polar_rejects_stack_with_one_rank_deficient_block(rng):
    M = rng.standard_normal((3, 4, 2))
    M[1] = 0.0
    with pytest.raises(RankDeficientError, match="0.000e\\+00"):
        _polar(M)


def _close(a, b):
    return np.abs(a - b).max() <= 1e-12


@PROPERTY
@given(networks(), st.sampled_from([0.3, 1.0, 3.0]), st.integers(1, 3))
def test_splitting_steps_match_per_agent_reference(net, alpha, t):
    problem, W, x0 = net
    params = SolverParams(alpha=alpha, t=t)
    stack = ddrs_init(problem, W, params, x0)
    # The fourth inexact step is the first to start from two differences.
    for k in range(4):
        for got, want in (
            (ddrs_step(stack, problem, W, params),
             per_agent_splitting_step(stack, problem, W, params)),
            (iddrs_step(stack, problem, W, params, k),
             per_agent_splitting_step(stack, problem, W, params, k)),
        ):
            for name in ("s", "x", "y", "z", "d"):
                assert _close(getattr(got, name), getattr(want, name)), name
            assert got.k == want.k
        assert np.array_equal(got.mu_sq, want.mu_sq)
        for name in ("gx", "dx", "dgx"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        stack = got


@PROPERTY
@given(networks(), st.sampled_from([0.01, 0.05]), st.integers(1, 3))
def test_baseline_step_matches_per_agent_reference(net, alpha, t):
    problem, W, x0 = net
    params = SolverParams(alpha=alpha, t=t)
    stack = baseline_gt_init(problem, W, params, x0)
    for _ in range(3):
        got = baseline_gt_step(stack, problem, W, params)
        want = per_agent_baseline_step(stack, problem, W, params)
        for name in ("x", "v", "grad"):
            assert _close(getattr(got, name), getattr(want, name)), name
        stack = got


@PROPERTY
@given(networks(), st.integers(1, 3))
def test_report_tube_is_largest_per_block_tube_distance(net, t):
    problem, W, x0 = net
    params = SolverParams(alpha=1.0, t=t)
    stack = ddrs_step(ddrs_init(problem, W, params, x0), problem, W, params)
    d, r = x0[0].shape
    report = neighborhood_report(stack, manifold_constants(d, r), W, t)
    mixed = mix(W, t, stack.x) + stack.d
    expected = max(tube_distance(block) for block in mixed)
    assert abs(report.max_tube - expected) <= 1e-12


@PROPERTY
@given(st.integers(2, 9).flatmap(connected_graphs), st.integers(0, 12),
       st.sampled_from([(), (7,), (7, 3)]), seeds)
def test_mix_matches_per_agent_gossip_rounds(graph, t, trailing, seed):
    W = metropolis_weights(graph)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((graph.n,) + trailing)
    scale = float(np.abs(X).max())
    out = mix(W, t, X)
    assert out.shape == X.shape
    assert float(np.abs(out - mix_per_agent(W, t, X)).max()) <= 1e-13 * scale
    # Doubly stochastic rounds keep the block mean.
    assert float(np.abs(out.mean(axis=0) - X.mean(axis=0)).max()) <= 1e-13 * scale
    if t == 0:
        assert np.array_equal(out, X)


@PROPERTY
@given(st.integers(2, 9).flatmap(connected_graphs), st.integers(0, 12), seeds)
def test_mix_of_non_contiguous_stack_matches_contiguous_copy(graph, t, seed):
    W = metropolis_weights(graph)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((graph.n, 3, 7)).swapaxes(1, 2)
    assert not X.flags["C_CONTIGUOUS"]
    out = mix(W, t, X)
    assert out.shape == X.shape
    assert np.array_equal(out, mix(W, t, np.ascontiguousarray(X)))
