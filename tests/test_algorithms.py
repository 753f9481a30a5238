import dataclasses
import math
import warnings

import numpy as np
import pytest

from ddrs.algorithms import (
    ConfigurationWarning,
    SolverParams,
    advise_parameters,
    baseline_gt_init,
    baseline_gt_step,
    ddrs_init,
    ddrs_step,
    epsilon_schedule,
    extrapolated_start,
    iddrs_step,
)
from ddrs.harness import build_run, preset, start_run
from ddrs.manifold import StiefelPoint, manifold_constants, project_stiefel
from ddrs.metrics import tracking_residual
from ddrs.network import Graph, gen_complete, gen_erdos_renyi, metropolis_weights
from ddrs.problems import DPCAInstance, NonFiniteInputError

from helpers import (
    assert_certified_product,
    centralized_drs,
    count_gram_products,
    global_average_drs,
    projected_gradient_descent,
    random_stiefel_mat,
)


def _consensus_start(rng, n, d, r):
    x = random_stiefel_mat(rng, d, r)
    return [StiefelPoint(x)] * n


class TestInit:
    def test_identical_start(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=2)
        st = ddrs_init(problem, W, params, _consensus_start(rng, 4, 6, 2))
        assert np.array_equal(st.s, st.x)
        assert np.array_equal(st.z, st.x)
        assert np.all(st.d == 0.0)
        assert tracking_residual(st) == 0.0
        assert st.k == 0

    def test_random_start_mean_identity(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=2)
        x0 = [project_stiefel(rng.standard_normal((6, 2))) for _ in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            st = ddrs_init(problem, W, params, x0)
        assert np.all(st.d == 0.0)
        assert tracking_residual(st) == 0.0

    def test_spread_start_warns_but_proceeds(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=2)
        x0 = [project_stiefel(rng.standard_normal((6, 2))) for _ in range(4)]
        with pytest.warns(ConfigurationWarning):
            st = ddrs_init(problem, W, params, x0)
        assert st.n == 4

    def test_consensus_start_no_warning(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConfigurationWarning)
            ddrs_init(problem, W, params, _consensus_start(rng, 4, 6, 2))

    def test_off_manifold_rejected(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=2)
        bad = [np.ones((6, 2))] * 4
        with pytest.raises(ValueError):
            ddrs_init(problem, W, params, bad)

    def test_block_count_mismatch(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=2)
        with pytest.raises(ValueError):
            ddrs_init(problem, W, params, _consensus_start(rng, 3, 6, 2))

    def test_objective_count_mismatch(self, rng, small_dataset):
        problem = small_dataset.instances()[:3]
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=2)
        with pytest.raises(ValueError,
                           match="got 3 local objectives for 4 agents"):
            ddrs_init(problem, W, params, _consensus_start(rng, 4, 6, 2))


class TestStepInvariants:
    def test_thirty_iterations(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=2.0, t=3)
        st = ddrs_init(problem, W, params, _consensus_start(rng, 4, 6, 2))
        for _ in range(30):
            prev = st
            st = ddrs_step(st, problem, W, params)
            # s-recursion is the literal expression, so equality is exact.
            assert np.array_equal(st.s, prev.s + prev.z - prev.x)
            assert np.array_equal(st.y, 2.0 * st.x - st.s)
            assert tracking_residual(st) <= 1e-11
            for i in range(4):
                res = problem[i].residual(params.alpha, st.s[i], st.x[i])
                assert (np.linalg.norm(res)
                        <= 1e-10 * (1 + np.linalg.norm(st.s[i])))
                StiefelPoint(st.z[i])  # z stays on the manifold
        assert st.k == 30

    def test_iteration_counter(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=1)
        st = ddrs_init(problem, W, params, _consensus_start(rng, 4, 6, 2))
        st = ddrs_step(st, problem, W, params)
        assert st.k == 1


class TestDegenerations:
    def test_single_agent_equals_centralized(self, rng):
        A = rng.standard_normal((40, 6))
        problem = [DPCAInstance(A)]
        W = metropolis_weights(Graph(1))
        params = SolverParams(alpha=1.5, t=1)
        x_start = random_stiefel_mat(rng, 6, 2)
        st = ddrs_init(problem, W, params, [StiefelPoint(x_start)])
        oracle = centralized_drs(problem[0], x_start, x_start, x_start,
                                 params.alpha, 100)
        worst = 0.0
        for s_o, x_o, z_o in oracle:
            st = ddrs_step(st, problem, W, params)
            worst = max(worst,
                        np.abs(st.s[0] - s_o).max(),
                        np.abs(st.x[0] - x_o).max(),
                        np.abs(st.z[0] - z_o).max())
        assert worst <= 1e-10

    def test_complete_graph_equals_global_average(self, rng):
        # Exact reduction needs identical local objectives: the tracker
        # correction is local, so heterogeneous agents keep an O(alpha)
        # tracking lag even under perfect mixing.
        block = rng.standard_normal((50, 6))
        problem = [DPCAInstance(block.copy()) for _ in range(4)]
        W = metropolis_weights(gen_complete(4))
        assert W.sigma2 < 1e-12
        params = SolverParams(alpha=1.0, t=1)
        x_start = random_stiefel_mat(rng, 6, 2)
        st = ddrs_init(problem, W, params, [StiefelPoint(x_start)] * 4)
        s0 = np.stack([x_start] * 4)
        oracle = global_average_drs(problem, s0, s0.copy(), s0.copy(),
                                    params.alpha, 100)
        worst = 0.0
        for s_o, x_o, z_o in oracle:
            st = ddrs_step(st, problem, W, params)
            worst = max(worst,
                        np.abs(st.s - s_o).max(),
                        np.abs(st.x - x_o).max(),
                        np.abs(st.z - z_o).max())
        assert worst <= 1e-10

    def test_exact_schedule_matches_ddrs(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        exact = SolverParams(alpha=2.0, t=2)
        inexact = SolverParams(alpha=2.0, t=2, eps0=0.0)
        x0 = _consensus_start(rng, 4, 6, 2)
        st_a = ddrs_init(problem, W, exact, x0)
        st_b = ddrs_init(problem, W, inexact, x0)
        worst = 0.0
        for k in range(100):
            st_a = ddrs_step(st_a, problem, W, exact)
            st_b = iddrs_step(st_b, problem, W, inexact, k)
            worst = max(worst, np.abs(st_a.x - st_b.x).max(),
                        np.abs(st_a.z - st_b.z).max())
        assert worst <= 1e-10


class TestStationaryStart:
    def test_fixed_point_holds(self, rng):
        # Identical blocks: the known optimum is an exact fixed point of the
        # on-manifold iterates (z and the induced mean); the splitting
        # variables equilibrate underneath without moving them.
        block = rng.standard_normal((60, 6))
        problem = [DPCAInstance(block.copy()) for _ in range(4)]
        evals, evecs = np.linalg.eigh(block.T @ block)
        xstar = evecs[:, ::-1][:, :2]
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=0.05, t=3)
        st = ddrs_init(problem, W, params, [StiefelPoint(xstar)] * 4)
        for _ in range(50):
            st = ddrs_step(st, problem, W, params)
            zdev = max(np.linalg.norm(st.z[i] - xstar) for i in range(4))
            xbar = project_stiefel(st.x.mean(axis=0)).mat
            assert zdev <= 1e-8
            assert np.linalg.norm(xbar - xstar) <= 1e-8


class TestEpsilonSchedule:
    def test_start(self):
        assert epsilon_schedule(1e-4, 0.5, 0) == 1e-4

    def test_closed_form(self):
        assert epsilon_schedule(1e-4, 0.5, 10) == pytest.approx(9.765625e-8, abs=0)

    def test_zero(self):
        assert epsilon_schedule(0.0, 0.3, 7) == 0.0

    def test_partial_sums_converge(self):
        eps0, rho = 1e-4, 0.5
        total = sum(epsilon_schedule(eps0, rho, k) for k in range(200))
        assert abs(total - eps0 / (1 - rho)) < 1e-18


class TestInexactStep:
    def test_residuals_certified(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=2.0, t=2, eps0=1e-4, rho=0.5)
        st = ddrs_init(problem, W, params, _consensus_start(rng, 4, 6, 2))
        for k in range(30):
            st = iddrs_step(st, problem, W, params, k)
            assert st.mu_sq is not None
            assert np.all(st.mu_sq <= epsilon_schedule(1e-4, 0.5, k))
            assert tracking_residual(st) <= 1e-11

    def test_each_step_keeps_the_certified_products_and_their_differences(
            self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=2.0, t=2)
        st = ddrs_init(problem, W, params, _consensus_start(rng, 4, 6, 2))
        assert st.gx is st.dx is st.dgx is None
        xs, gxs = [], []
        calls = [count_gram_products(inst) for inst in problem]
        for k in range(5):
            for agent_calls in calls:
                del agent_calls[:]
            st = iddrs_step(st, problem, W, params, k)
            xs.insert(0, st.x)
            gxs.insert(0, st.gx)
            for inst, s, x, mu_sq, gx, agent_calls in zip(
                    problem, st.s, st.x, st.mu_sq, st.gx, calls, strict=True):
                mu = inst.apply_system(params.alpha, x, gx) - s
                assert mu_sq == float(np.vdot(mu, mu))
                assert_certified_product(inst, params.alpha, s, x, mu, gx,
                                         agent_calls)
            m = min(k, 2)
            if m == 0:
                assert st.dx is st.dgx is None
                continue
            assert st.dx.shape == st.dgx.shape == (4, m, 6, 2)
            for j in range(m):
                assert np.array_equal(st.dx[:, j], xs[j] - xs[j + 1])
                assert np.array_equal(st.dgx[:, j], gxs[j] - gxs[j + 1])
        exact = ddrs_step(st, problem, W, params)
        assert exact.gx is exact.dx is exact.dgx is None

    def test_extrapolated_start_is_the_least_residual_move(self, rng):
        d, r, alpha = 6, 3, 0.7
        inst = DPCAInstance(rng.standard_normal((30, d)))
        M = np.eye(d) + alpha * (inst.shift * np.eye(d) - inst.gram)
        x, s = rng.standard_normal((d, r)), rng.standard_normal((d, r))
        gx = inst._gram_apply(x)
        dx = rng.standard_normal((2, d, r))
        dgx = np.stack([inst._gram_apply(v) for v in dx])
        for m in (1, 2):
            x0, gx0 = extrapolated_start(inst, alpha, s, x, gx, dx[:m],
                                         dgx[:m])
            moves = np.stack([(M @ v).ravel() for v in dx[:m]], axis=1)
            theta = np.linalg.lstsq(moves, (s - M @ x).ravel(), rcond=None)[0]
            want = x + np.tensordot(theta, dx[:m], axes=1)
            assert np.abs(x0 - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(gx0 - inst.gram @ x0).max() <= 1e-12 * np.abs(gx0).max()
        # Parallel differences: the newest alone.
        x0, gx0 = extrapolated_start(inst, alpha, s, x, gx,
                                     np.stack([dx[0], -3.0 * dx[0]]),
                                     np.stack([dgx[0], -3.0 * dgx[0]]))
        one = extrapolated_start(inst, alpha, s, x, gx, dx[:1], dgx[:1])
        assert np.abs(x0 - one[0]).max() <= 1e-14 * np.abs(x0).max()
        # A difference with no system product, or no history: no move.
        zero = np.zeros((1, d, r))
        x0, gx0 = extrapolated_start(inst, alpha, s, x, gx, zero, zero)
        assert x0 is x and gx0 is gx
        x0, gx0 = extrapolated_start(inst, alpha, s, x, None, None, None)
        assert x0 is x and gx0 is None

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_s_with_history_is_rejected_without_a_warning(
            self, bad):
        # On the preset, an infinite entry in agent 0's s turns the start's
        # theta into opposite infinities, whose sum would warn (inf - inf);
        # the start must leave the rejection to the solve, as the first
        # step does.
        config = preset("synthetic-er06", "algorithm.kind = iddrs\n")
        setup = build_run(config)
        st, _ = start_run(config, setup)
        args = setup.problem, setup.W, setup.params
        for k in range(4):
            st = iddrs_step(st, *args, k)
        s = st.s.copy()
        s[0, 0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteInputError):
                iddrs_step(dataclasses.replace(st, s=s), *args, 4)

    def test_eps0_above_delta2_warns(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=2.0, t=2, eps0=0.02, rho=0.5)
        st = ddrs_init(problem, W, params, _consensus_start(rng, 4, 6, 2))
        with pytest.warns(ConfigurationWarning, match="eps0"):
            iddrs_step(st, problem, W, params, 0)


class TestBaseline:
    def test_single_agent_is_projected_descent(self, rng):
        A = rng.standard_normal((40, 6))
        problem = [DPCAInstance(A)]
        W = metropolis_weights(Graph(1))
        params = SolverParams(alpha=1.0, t=1)
        x_start = random_stiefel_mat(rng, 6, 2)
        st = baseline_gt_init(problem, W, params, [StiefelPoint(x_start)])
        oracle = projected_gradient_descent(problem[0], x_start, params.alpha, 50)
        for x_o in oracle:
            st = baseline_gt_step(st, problem, W, params)
            assert np.abs(st.x[0] - x_o).max() <= 1e-10

    def test_tracker_mean_identity(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=2)
        st = baseline_gt_init(problem, W, params, _consensus_start(rng, 4, 6, 2))
        for _ in range(40):
            st = baseline_gt_step(st, problem, W, params)
            grads = np.stack([problem[i].egrad(st.x[i]) for i in range(4)])
            gap = st.v.mean(axis=0) - grads.mean(axis=0)
            assert np.linalg.norm(gap) <= 1e-11
            for i in range(4):
                StiefelPoint(st.x[i])

    def test_stationary_start_near_fixed(self, rng):
        block = rng.standard_normal((60, 6))
        problem = [DPCAInstance(block.copy()) for _ in range(4)]
        evals, evecs = np.linalg.eigh(block.T @ block)
        xstar = evecs[:, ::-1][:, :2]
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        # Explicit gradient steps need alpha below 1/L to keep the fixed
        # point attracting (the prox-based engine has no such restriction).
        params = SolverParams(alpha=0.4 / problem[0].smoothness(), t=2)
        st = baseline_gt_init(problem, W, params, [StiefelPoint(xstar)] * 4)
        for _ in range(50):
            st = baseline_gt_step(st, problem, W, params)
            assert max(np.linalg.norm(st.x[i] - xstar) for i in range(4)) <= 1e-8


class TestAdvisor:
    def test_delta_arithmetic(self):
        adv = advise_parameters(L=1.0, gamma=0.5, zeta=2 * np.sqrt(5),
                                sigma2=0.5, n=8, grad0_norm=0.0)
        assert adv.delta1 == 0.125
        assert adv.delta2 == 0.125 / 12
        assert abs(adv.delta2 - 0.0104167) < 5e-8
        assert abs(adv.delta3 - (2 * 0.125 / 12 + 2 * np.sqrt(5))) == 0.0
        # 2*delta2 + 2*sqrt(5) = 4.4929693 (quoted elsewhere rounded to
        # 4.49293; the formula equality above is the exact check).
        assert abs(adv.delta3 - 4.49293) < 1e-4

    def test_clause_arithmetic(self):
        adv = advise_parameters(L=1.0, gamma=0.5, zeta=2.0, sigma2=0.5, n=8,
                                grad0_norm=0.0)
        # ceil(log2(4 sqrt(8))) = 4 and ceil(log2(12 sqrt(8))) = 6.
        assert adv.t_clauses[0] == 4
        assert adv.t_clauses[2] == 6

    def test_complete_graph_limit(self):
        adv = advise_parameters(L=1.0, gamma=0.5, zeta=2.0, sigma2=0.0, n=8,
                                grad0_norm=0.0)
        assert adv.t_min == 1
        assert adv.c1 == 128.0

    def test_corrected_clause_flagged(self):
        adv = advise_parameters(L=1.0, gamma=0.5, zeta=2.0, sigma2=0.5, n=8,
                                grad0_norm=0.0)
        assert any("reciprocal" in note for note in adv.notes)
        # The corrected clause must enforce sigma2^t <= delta2/(sqrt(n) delta3).
        t = adv.t_clauses[1]
        assert 0.5 ** t <= adv.delta2 / (np.sqrt(8) * adv.delta3)
        assert 0.5 ** (t - 1) > adv.delta2 / (np.sqrt(8) * adv.delta3)

    def test_alpha_positive_and_monotone_in_L(self):
        lo = advise_parameters(L=0.1, gamma=0.5, zeta=2.0, sigma2=0.5, n=4,
                               grad0_norm=0.0)
        hi = advise_parameters(L=10.0, gamma=0.5, zeta=2.0, sigma2=0.5, n=4,
                               grad0_norm=0.0)
        assert 0 < hi.alpha_max < lo.alpha_max

    def test_initial_state_constants(self, rng, small_dataset):
        problem = small_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
        params = SolverParams(alpha=1.0, t=2)
        st = ddrs_init(problem, W, params, _consensus_start(rng, 4, 6, 2))
        adv = advise_parameters(L=1.0, gamma=0.5, zeta=2 * np.sqrt(2),
                                sigma2=W.sigma2, n=4, grad0_norm=0.0,
                                initial_state=st)
        assert adv.c2 is not None and adv.c2 >= 0.0
        assert adv.c4_shape is not None and adv.c5_shape is not None
        assert adv.c5_shape > adv.c4_shape

    def test_no_initial_state_gives_none(self):
        adv = advise_parameters(L=1.0, gamma=0.5, zeta=2.0, sigma2=0.5, n=4,
                                grad0_norm=0.0)
        assert adv.c2 is None and adv.c4_shape is None and adv.c5_shape is None

    def test_rejects_bad_sigma2(self):
        with pytest.raises(ValueError):
            advise_parameters(L=1.0, gamma=0.5, zeta=2.0, sigma2=1.0, n=4,
                              grad0_norm=0.0)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.nan])
    def test_rejects_a_non_positive_smoothness(self, L):
        with pytest.raises(ValueError, match="L must be positive"):
            advise_parameters(L=L, gamma=0.5, zeta=2.0, sigma2=0.5, n=4,
                              grad0_norm=0.0)


class TestBoundedness:
    def test_certified_run_stays_bounded(self, rng, bench_dataset):
        problem = bench_dataset.instances()
        W = metropolis_weights(gen_erdos_renyi(8, 0.6, seed=7))
        consts = manifold_constants(10, 5)
        L = max(inst.smoothness() for inst in problem)
        adv = advise_parameters(L, consts.gamma, consts.zeta, W.sigma2, 8, 0.0)
        params = SolverParams(alpha=adv.alpha_max, t=adv.t_min)
        st = ddrs_init(problem, W, params, _consensus_start(rng, 8, 10, 5))
        zeta, d2 = consts.zeta, adv.delta2
        for _ in range(200):
            st = ddrs_step(st, problem, W, params)
            s_inf = max(np.linalg.norm(st.s[i]) for i in range(8))
            xs_inf = max(np.linalg.norm(st.x[i] - st.s[i]) for i in range(8))
            d_inf = max(np.linalg.norm(st.d[i]) for i in range(8))
            assert s_inf <= zeta + d2 + 1e-12
            assert xs_inf <= d2 + 1e-12
            assert d_inf <= 4 * d2 + 1e-12


class TestParams:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            SolverParams(alpha=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["alpha", "eps0"])
    def test_rejects_non_finite(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            SolverParams(**{"alpha": 1.0, key: value})

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            SolverParams(alpha=1.0, t=0)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            SolverParams(alpha=1.0, rho=1.0)
