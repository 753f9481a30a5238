import numpy as np
import pytest

from ddrs.network import (
    Graph,
    MixingMatrix,
    NotConnectedError,
    SpectralGapViolationError,
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    metropolis_weights,
    mix,
    second_singular,
)

from helpers import dense_tv_bound_holds


class TestGraphs:
    def test_ring_triangle(self):
        g = gen_ring(3)
        assert len(g.edges) == 3

    def test_ring_four_cycle(self):
        g = gen_ring(4)
        assert len(g.edges) == 4
        assert np.all(g.degrees() == 2)

    def test_ring_eight(self):
        g = gen_ring(8)
        assert len(g.edges) == 8

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            gen_ring(2)

    def test_er_full_probability(self):
        g = gen_erdos_renyi(6, 1.0, seed=0)
        assert len(g.edges) == 15

    def test_er_deterministic(self):
        a = gen_erdos_renyi(8, 0.3, seed=4)
        b = gen_erdos_renyi(8, 0.3, seed=4)
        assert a.edges == b.edges

    def test_er_not_connected(self):
        with pytest.raises(NotConnectedError):
            gen_erdos_renyi(8, 1e-6, seed=0)

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            Graph(4, frozenset([(0, 1), (2, 3)]))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset([(0, 0), (0, 1), (1, 2)]))

    @pytest.mark.parametrize("build, message", [
        (lambda: Graph(3, frozenset([(0, 1), (1, 3)])),
         r"edge \(1, 3\) out of range for n=3"),
        (lambda: Graph(0, frozenset()), "need at least one node"),
        (lambda: gen_complete(1), "complete graph needs n >= 2, got 1"),
        (lambda: gen_erdos_renyi(1, 0.5, seed=0), "need n >= 2, got 1"),
        (lambda: gen_erdos_renyi(4, 0.0, seed=0), r"need p in \(0, 1\]"),
        (lambda: gen_erdos_renyi(4, 1.5, seed=0), r"need p in \(0, 1\]"),
    ])
    def test_bad_graph_arguments_are_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def _assumption_holds(W, graph, tol=1e-12):
    M = W.W
    assert np.all(M >= -tol)
    assert np.abs(M - M.T).max() <= tol
    assert np.abs(M.sum(axis=1) - 1.0).max() <= tol
    W.check_pattern(graph)
    assert W.sigma2 < 1.0


class TestMetropolis:
    def test_triangle_is_averaging(self):
        W = metropolis_weights(gen_ring(3))
        assert np.allclose(W.W, np.full((3, 3), 1.0 / 3.0), atol=1e-15)
        assert W.sigma2 < 1e-12

    def test_four_ring_circulant(self):
        W = metropolis_weights(gen_ring(4))
        assert np.allclose(W.W[0], [1 / 3, 1 / 3, 0, 1 / 3], atol=1e-15)
        assert abs(W.sigma2 - 1.0 / 3.0) < 1e-12

    def test_two_node_path(self):
        W = metropolis_weights(Graph(2, frozenset([(0, 1)])))
        assert np.allclose(W.W, 0.5 * np.ones((2, 2)), atol=1e-15)
        assert W.sigma2 < 1e-12

    def test_complete_graph_is_uniform(self):
        n = 5
        W = metropolis_weights(gen_complete(n))
        assert np.allclose(W.W, np.full((n, n), 1.0 / n), atol=1e-15)

    def test_assumption_invariants(self):
        for graph in [gen_ring(5), gen_erdos_renyi(9, 0.4, seed=3),
                      gen_complete(6), gen_erdos_renyi(16, 0.3, seed=5)]:
            _assumption_holds(metropolis_weights(graph), graph)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            MixingMatrix(np.array([[0.5, 0.6], [0.4, 0.5]]))

    @pytest.mark.parametrize("W, message", [
        (np.full((2, 3), 1.0 / 3.0), "must be square"),
        (np.array([0.5, 0.5]), "must be square"),
        (np.array([[1.5, -0.5], [-0.5, 1.5]]), "negative entries"),
        (np.array([[0.5, 0.4], [0.4, 0.5]]), "rows do not sum to 1"),
    ])
    def test_each_broken_assumption_is_named(self, W, message):
        with pytest.raises(ValueError, match=message):
            MixingMatrix(W)

    def test_a_pattern_check_rejects_another_graph(self):
        W = metropolis_weights(gen_ring(4))
        with pytest.raises(ValueError, match="graph size 3 vs matrix size 4"):
            W.check_pattern(gen_ring(3))
        with pytest.raises(ValueError,
                           match=r"entry \(0, 2\) inconsistent with edge set"):
            W.check_pattern(gen_complete(4))


class TestSecondSingular:
    def test_uniform_averaging_zero(self):
        assert second_singular(np.full((4, 4), 0.25)) < 1e-12

    def test_identity_violates(self):
        with pytest.raises(SpectralGapViolationError):
            second_singular(np.eye(4))

    def test_four_ring_value(self):
        W = metropolis_weights(gen_ring(4))
        assert abs(second_singular(W.W) - 1.0 / 3.0) < 1e-12


class TestMix:
    def test_zero_rounds_identity(self, rng):
        W = metropolis_weights(gen_ring(5))
        X = rng.standard_normal((5, 4, 2))
        assert np.array_equal(mix(W, 0, X), X)

    def test_consensus_fixed(self, rng):
        W = metropolis_weights(gen_ring(5))
        block = rng.standard_normal((4, 2))
        X = np.stack([block] * 5)
        assert np.allclose(mix(W, 3, X), X, atol=1e-14)

    def test_contraction_rate_four_ring(self, rng):
        W = metropolis_weights(gen_ring(4))
        X = rng.standard_normal((4, 3, 2))
        Xbar = np.broadcast_to(X.mean(axis=0), X.shape)
        base = np.linalg.norm(X - Xbar)
        for t in range(1, 7):
            out = mix(W, t, X)
            assert np.linalg.norm(out - Xbar) <= (1.0 / 3.0) ** t * base + 1e-12

    def test_semigroup(self, rng):
        W = metropolis_weights(gen_erdos_renyi(6, 0.5, seed=2))
        X = rng.standard_normal((6, 3, 2))
        lhs = mix(W, 5, X)
        rhs = mix(W, 2, mix(W, 3, X))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_mean_preserved(self, rng):
        W = metropolis_weights(gen_erdos_renyi(6, 0.5, seed=2))
        X = rng.standard_normal((6, 3, 2))
        out = mix(W, 4, X)
        assert np.abs(out.mean(axis=0) - X.mean(axis=0)).max() < 1e-12

    def test_one_round_is_one_product_with_w(self, rng):
        W = metropolis_weights(gen_erdos_renyi(6, 0.5, seed=2))
        X = rng.standard_normal((6, 3, 2))
        want = (W.W @ X.reshape(6, -1)).reshape(X.shape)
        np.testing.assert_array_equal(mix(W, 1, X), want)

    def test_block_count_mismatch(self, rng):
        W = metropolis_weights(gen_ring(5))
        with pytest.raises(ValueError):
            mix(W, 1, rng.standard_normal((4, 3, 2)))

    def test_negative_rounds(self, rng):
        W = metropolis_weights(gen_ring(5))
        with pytest.raises(ValueError):
            mix(W, -1, rng.standard_normal((5, 3, 2)))


class TestTotalVariationBound:
    def test_dense_rings(self):
        for n in [4, 8, 16]:
            W = metropolis_weights(gen_ring(n))
            ok, t, lhs, rhs = dense_tv_bound_holds(W, 10)
            assert ok, "violated at t=%s: %s > %s" % (t, lhs, rhs)

    def test_dense_er(self):
        for n, p, seed in [(8, 0.3, 1), (12, 0.4, 2), (16, 0.6, 3)]:
            W = metropolis_weights(gen_erdos_renyi(n, p, seed=seed))
            ok, t, lhs, rhs = dense_tv_bound_holds(W, 10)
            assert ok, "violated at t=%s: %s > %s" % (t, lhs, rhs)
