import numpy as np
import pytest

from ddrs.algorithms import (
    ConfigurationWarning,
    SolverParams,
    ddrs_init,
    ddrs_step,
)
from ddrs.manifold import (
    RankDeficientError,
    StiefelPoint,
    manifold_constants,
    project_stiefel,
    tangent_project,
)
from ddrs.metrics import (
    IterationRecord,
    consensus_and_stationarity,
    dre_value,
    induced_mean,
    neighborhood_report,
    rate_fit,
    tracking_residual,
)
from ddrs.network import Graph, gen_erdos_renyi, metropolis_weights, mix
from ddrs.problems import DPCAInstance

from helpers import analytic_dpca_optimum, gram_loss, random_stiefel_mat


def _consensus_stack(problem, W, rng, d, r, alpha=1.0, t=2):
    params = SolverParams(alpha=alpha, t=t)
    x = random_stiefel_mat(rng, d, r)
    return ddrs_init(problem, W, params, [StiefelPoint(x)] * W.n), params


class TestConsensusAndStationarity:
    def test_equal_agents_zero_consensus(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, _ = _consensus_stack(problem, W, rng, 6, 2)
        consensus_sq, _, _ = consensus_and_stationarity(st.x, induced_mean(st.x),
                                                     problem)
        assert consensus_sq <= 1e-28

    def test_ground_truth_stationary(self, small_dataset):
        problem = small_dataset.instances()
        x = np.stack([small_dataset.ground_truth.mat] * 4)
        _, stationarity_sq, _ = consensus_and_stationarity(x, induced_mean(x),
                                                         problem)
        assert stationarity_sq <= 1e-16

    def test_antipodal_mean_collapses(self, rng):
        problem = [DPCAInstance(rng.standard_normal((10, 3))) for _ in range(2)]
        x = random_stiefel_mat(rng, 3, 1)
        stacked = np.stack([x, -x])
        with pytest.raises(RankDeficientError):
            consensus_and_stationarity(stacked, induced_mean(stacked),
                                       problem)

    def test_accepts_raw_blocks(self, rng, small_dataset):
        problem = small_dataset.instances()
        blocks = np.stack([random_stiefel_mat(rng, 6, 2) for _ in range(4)])
        c, g, _ = consensus_and_stationarity(blocks, induced_mean(blocks),
                                            problem)
        assert c >= 0.0 and g >= 0.0


class TestDreValue:
    def test_equals_objective_at_fixed_point(self, rng, small_dataset):
        # At the splitting fixed point s_i = x* + alpha * egrad_i(x*), the
        # prox returns x* for every agent, the mean of y projects back to
        # x*, and both correction terms vanish.
        problem = small_dataset.instances()
        fstar, vstar = analytic_dpca_optimum(small_dataset)
        alpha = 1.3
        s = np.stack([vstar + alpha * inst.egrad(vstar) for inst in problem])
        val = dre_value(s, problem, alpha)
        direct = sum(gram_loss(inst, vstar) for inst in problem)
        assert abs(val - direct) < 1e-9
        assert abs(direct - fstar) < 1e-9

    def test_lower_bound_along_run(self, rng, small_dataset):
        problem = small_dataset.instances()
        fstar, _ = analytic_dpca_optimum(small_dataset)
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, params = _consensus_stack(problem, W, rng, 6, 2, alpha=2.0)
        for _ in range(60):
            st = ddrs_step(st, problem, W, params)
            val = dre_value(st.s, problem, params.alpha)
            assert np.isfinite(val)
            assert val >= fstar - 1e-9

    def test_scalar_hand_case(self):
        # Single agent, d=2, r=1, A = diag(1, 2), alpha = 0.5, s = (1, 1)^T:
        # x = (0.4, 1); egrad(x) = (3*0.4, 0) = (1.2, 0);
        # y = x - a*egrad = (-0.2, 1); ybar = y/||y||;
        # value = f(x) + <egrad, ybar - x> + ||ybar - x||^2 / (2a).
        inst = DPCAInstance(np.diag([1.0, 2.0]))
        s = np.array([[1.0], [1.0]])
        alpha = 0.5
        x = np.array([0.4, 1.0])
        egrad = np.array([1.2, 0.0])
        y = np.array([-0.2, 1.0])
        ybar = y / np.hypot(*y)
        fx = -0.5 * (x @ np.diag([1.0, 4.0]) @ x - 4.0 * x @ x)
        expected = (fx + egrad @ (ybar - x)
                    + (ybar - x) @ (ybar - x) / (2 * alpha))
        got = dre_value(s[None, :, :], [inst], alpha)
        assert abs(got - expected) < 1e-12

    def test_mean_contraction(self, rng, small_dataset):
        # ||mean(z) - ybar|| <= ||z - ybar|| (stacked) on random stacks.
        problem = small_dataset.instances()
        for _ in range(20):
            z = np.stack([random_stiefel_mat(rng, 6, 2) for _ in range(4)])
            y = np.stack([random_stiefel_mat(rng, 6, 2) for _ in range(4)])
            ybar = induced_mean(y).mat
            zhat = z.mean(axis=0)
            lhs = np.sqrt(4) * np.linalg.norm(zhat - ybar)
            rhs = np.sqrt(sum(np.linalg.norm(z[i] - ybar) ** 2 for i in range(4)))
            assert lhs <= rhs + 1e-10


class TestTrackingResidual:
    def test_zero_after_init(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, _ = _consensus_stack(problem, W, rng, 6, 2)
        assert tracking_residual(st) == 0.0

    def test_small_after_hundred_steps(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, params = _consensus_stack(problem, W, rng, 6, 2, alpha=2.0)
        for _ in range(100):
            st = ddrs_step(st, problem, W, params)
        assert tracking_residual(st) <= 1e-11

    def test_detects_corruption(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, params = _consensus_stack(problem, W, rng, 6, 2)
        st = ddrs_step(st, problem, W, params)
        st.d[0] += 1e-3
        assert tracking_residual(st) > 1e-5


class TestNeighborhoodReport:
    def test_consensus_start_clean(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, params = _consensus_stack(problem, W, rng, 6, 2)
        rep = neighborhood_report(st, manifold_constants(6, 2), W, params.t)
        assert rep.ok
        assert rep.x_dev < 1e-12 and rep.z_dev < 1e-12 and rep.max_tube < 1e-12

    def test_spread_stack_flags_without_raising(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, params = _consensus_stack(problem, W, rng, 6, 2)
        spread = np.stack([random_stiefel_mat(rng, 6, 2) for _ in range(4)])
        st.x = spread
        rep = neighborhood_report(st, manifold_constants(6, 2), W, params.t)
        assert "x-neighborhood" in rep.violations
        assert not rep.ok

    def test_collapsed_mean_flags_without_raising(self, rng):
        problem = [DPCAInstance(rng.standard_normal((8, 3))) for _ in range(2)]
        W = metropolis_weights(Graph(2, frozenset([(0, 1)])))
        st, params = _consensus_stack(problem, W, rng, 3, 1)
        x = random_stiefel_mat(rng, 3, 1)
        st.x = np.stack([x, -x])  # mean is exactly zero
        rep = neighborhood_report(st, manifold_constants(3, 1), W, params.t)
        assert "x-neighborhood" in rep.violations
        assert rep.x_dev == np.inf

    def test_rank_deficient_mean_flags_without_raising(self, rng,
                                                      small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, params = _consensus_stack(problem, W, rng, 6, 2)
        x = random_stiefel_mat(rng, 6, 2)
        flipped = x * [1.0, -1.0]
        # The mean keeps the first column and loses the second.
        st.x = np.stack([x, flipped, x, flipped])
        rep = neighborhood_report(st, manifold_constants(6, 2), W, params.t)
        assert rep.x_dev == np.inf and "x-neighborhood" in rep.violations
        assert np.isfinite(rep.z_dev)

    def test_spreads_are_the_means_distances_to_the_manifold(
            self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, params = _consensus_stack(problem, W, rng, 6, 2)
        st.x = np.stack([random_stiefel_mat(rng, 6, 2) for _ in range(4)])
        st.z = np.stack([random_stiefel_mat(rng, 6, 2) for _ in range(4)])
        rep = neighborhood_report(st, manifold_constants(6, 2), W, params.t)
        for dev, blocks in ((rep.x_dev, st.x), (rep.z_dev, st.z)):
            hat = blocks.mean(axis=0)
            assert dev == pytest.approx(
                np.linalg.norm(hat - project_stiefel(hat).mat), rel=1e-12)

    @pytest.mark.parametrize("spread", [0.0, 0.05, 0.5, 2.0])
    def test_spreads_match_the_svd(self, rng, small_dataset, spread):
        # Near consensus both means take the Gram route; spread out, the
        # means may be ill conditioned and take the SVD.
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        st, params = _consensus_stack(problem, W, rng, 6, 2)
        base = random_stiefel_mat(rng, 6, 2)
        st.x, st.z = (np.stack([
            project_stiefel(base + spread * rng.standard_normal((6, 2))).mat
            for _ in range(4)]) for _ in range(2))
        rep = neighborhood_report(st, manifold_constants(6, 2), W, params.t)
        for dev, blocks in ((rep.x_dev, st.x), (rep.z_dev, st.z)):
            sv = np.linalg.svd(blocks.mean(axis=0), compute_uv=False)
            assert abs(dev - np.linalg.norm(sv - 1.0)) <= 1e-13

    def test_compliant_run_stays_clean(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        consts = manifold_constants(6, 2)
        L = max(inst.smoothness() for inst in problem)
        from ddrs.algorithms import advise_parameters

        adv = advise_parameters(L, consts.gamma, consts.zeta, W.sigma2, 4, 0.0)
        params = SolverParams(alpha=adv.alpha_max, t=adv.t_min)
        x = random_stiefel_mat(rng, 6, 2)
        st = ddrs_init(problem, W, params, [StiefelPoint(x)] * 4)
        for _ in range(100):
            st = ddrs_step(st, problem, W, params)
            assert neighborhood_report(st, consts, W, params.t).ok

    def test_tube_is_read_from_the_kept_singular_values(
            self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        consts = manifold_constants(6, 2)
        st, params = _consensus_stack(problem, W, rng, 6, 2, alpha=3.0)
        for _ in range(5):
            st = ddrs_step(st, problem, W, params)
            sv = np.linalg.svd(mix(W, params.t, st.x) + st.d, compute_uv=False)
            np.testing.assert_allclose(st.z_sv, sv, rtol=1e-12)
            tube = np.linalg.norm(sv - 1.0, axis=-1).max()
            rep = neighborhood_report(st, consts, W, params.t)
            assert rep.max_tube == pytest.approx(tube, rel=1e-12)
            assert ("projection-tube" in rep.violations) == (
                rep.max_tube > consts.gamma)

    def test_start_whose_mix_collapses_has_infinite_tube(self, rng):
        problem = [DPCAInstance(rng.standard_normal((8, 3))) for _ in range(2)]
        W = metropolis_weights(Graph(2, frozenset([(0, 1)])))
        params = SolverParams(alpha=1.0, t=1)
        x = random_stiefel_mat(rng, 3, 1)
        with pytest.warns(ConfigurationWarning):
            st = ddrs_init(problem, W, params, [StiefelPoint(x), StiefelPoint(-x)])
        assert st.z_sv.shape == (2, 1) and np.all(st.z_sv == np.inf)
        rep = neighborhood_report(st, manifold_constants(3, 1), W, params.t)
        assert rep.max_tube == np.inf and "projection-tube" in rep.violations


class TestObjectiveAtMean:
    def test_matches_direct_eval(self, rng, small_dataset):
        problem = small_dataset.instances()
        x = random_stiefel_mat(rng, 6, 2)
        stacked = np.stack([x] * 4)
        _, _, val = consensus_and_stationarity(stacked, induced_mean(stacked),
                                               problem)
        assert abs(val - sum(gram_loss(inst, x) for inst in problem)) < 1e-12

    def test_obj_and_stationarity_from_the_summed_egrad(
            self, rng, small_dataset):
        # The summed gradient is the same floats, in the same summation
        # order, as summing each agent's egrad; the value comes from it and
        # agrees with the Gram formula to rounding.
        problem = small_dataset.instances()
        blocks = np.stack([random_stiefel_mat(rng, 6, 2) for _ in range(4)])
        xbar = induced_mean(blocks)
        _, stationarity_sq, obj = consensus_and_stationarity(blocks, xbar,
                                                             problem)
        g = np.zeros_like(xbar.mat)
        for inst in problem:
            g += inst.egrad(xbar)
        rg = tangent_project(xbar, g)
        assert stationarity_sq == float(np.vdot(rg, rg))
        assert obj == float(np.vdot(xbar.mat, g)) / 2.0
        expected = sum(gram_loss(inst, xbar.mat) for inst in problem)
        assert abs(obj - expected) <= 1e-13 * abs(expected)


class TestRateFit:
    @staticmethod
    def _records(values):
        return [IterationRecord(k=k, consensus_sq=0.0, stationarity_sq=v)
                for k, v in enumerate(values)]

    def test_one_over_k(self):
        recs = self._records([1.0] + [1.0 / k for k in range(1, 300)])
        slope, _ = rate_fit(recs, "stationarity_sq", k_min=1, k_max=299)
        assert abs(slope + 1.0) < 1e-6

    def test_constant_sequence(self):
        recs = self._records([2.5] * 100)
        slope, _ = rate_fit(recs, "stationarity_sq", k_min=1, k_max=99)
        assert abs(slope) < 1e-12

    def test_running_min_used(self):
        # A spike after the minimum must not affect the fit.
        vals = [1.0 / k for k in range(1, 100)]
        vals[50] = 10.0
        recs = self._records([1.0] + vals)
        slope, _ = rate_fit(recs, "stationarity_sq", k_min=1, k_max=99)
        assert slope < -0.9

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            rate_fit(self._records([1.0, 0.5, 0.3]), "stationarity_sq")
