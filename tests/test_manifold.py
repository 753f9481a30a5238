import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddrs.manifold import (
    RANK_TOL,
    ManifoldConstants,
    RankDeficientError,
    StiefelPoint,
    _gram_eigh,
    _polar,
    manifold_constants,
    project_stiefel,
    random_stiefel,
    subspace_distance,
    tangent_project,
    tube_distance,
)

from helpers import (
    procrustes_min_by_rotation_sweep,
    procrustes_min_by_sampling,
    random_orthogonal,
    random_stiefel_mat,
    svd_polar,
)


class TestStiefelPoint:
    def test_accepts_orthonormal(self):
        x = StiefelPoint(np.eye(3)[:, :2])
        assert x.shape == (3, 2)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            StiefelPoint(np.ones((3, 2)))

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.eye(2, 3))

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=1"):
            StiefelPoint(np.ones(3))


class TestProjection:
    def test_identity_block_fixed(self):
        M = np.eye(3)[:, :2]
        assert np.allclose(project_stiefel(M).mat, M)

    def test_column_normalization_rank_one(self):
        out = project_stiefel(np.array([[3.0], [4.0]]))
        assert np.allclose(out.mat, [[0.6], [0.8]])

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3), (1, 2, 2, 2)])
    def test_rejects_what_is_not_tall_blocks(self, shape):
        with pytest.raises(ValueError, match="expected a tall d x r matrix"):
            project_stiefel(np.ones(shape))

    def test_zero_matrix_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            project_stiefel(np.zeros((3, 2)))

    def test_optimality_sampled(self, rng):
        # The projection beats 100 random manifold points for 100 random
        # inputs inside the tube.
        for _ in range(100):
            x = random_stiefel_mat(rng, 5, 2)
            M = x + 0.3 * rng.standard_normal((5, 2))
            if tube_distance(M) > 0.5:
                continue
            p = project_stiefel(M).mat
            dist = np.linalg.norm(p - M)
            for _ in range(100):
                y = random_stiefel_mat(rng, 5, 2)
                assert dist <= np.linalg.norm(y - M) + 1e-10

    def test_two_lipschitz_inside_tube(self, rng):
        gamma = 0.5
        checked = 0
        while checked < 200:
            base = random_stiefel_mat(rng, 6, 3)
            a = base + rng.uniform(0, 0.28) * _unit(rng, (6, 3))
            b = base + rng.uniform(0, 0.28) * _unit(rng, (6, 3))
            if tube_distance(a) > gamma or tube_distance(b) > gamma:
                continue
            lhs = np.linalg.norm(project_stiefel(a).mat - project_stiefel(b).mat)
            assert lhs <= 2.0 * np.linalg.norm(a - b) + 1e-10
            checked += 1

    def test_normal_inequality(self, rng):
        # <v, y - x> <= ||v|| / (4 gamma) * ||y - x||^2 for normals v at x.
        gamma = 0.5
        for _ in range(200):
            x = random_stiefel_mat(rng, 6, 3)
            y = random_stiefel_mat(rng, 6, 3)
            S = rng.standard_normal((3, 3))
            v = x @ (S + S.T)
            lhs = float(np.vdot(v, y - x))
            rhs = np.linalg.norm(v) / (4.0 * gamma) * np.linalg.norm(y - x) ** 2
            assert lhs <= rhs + 1e-10


def _unit(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v)


def _with_singular_values(rng, d, sv):
    """A d-by-r block with singular values ``sv``; a stack for a 2-D ``sv``."""
    sv = np.asarray(sv, dtype=float)
    r = sv.shape[-1]
    U = np.linalg.qr(rng.standard_normal(sv.shape[:-1] + (d, r)))[0]
    V = np.linalg.qr(rng.standard_normal(sv.shape[:-1] + (r, r)))[0]
    return (U * sv[..., None, :]) @ V


def _assert_matches_svd_polar(M, tol):
    """``_polar(M)`` against the thin SVD's ``U V^T`` and singular values."""
    Q, sv = _polar(M)
    want_sv = np.linalg.svd(M, compute_uv=False)
    want_q = svd_polar(M)
    r = M.shape[-1]
    gap = np.linalg.norm(Q - want_q, axis=(-2, -1))
    assert (gap <= tol * np.sqrt(r)).all()
    assert (np.abs(sv - want_sv) <= tol * want_sv).all()


def _assert_takes_the_svd(M):
    """Every block is left to the SVD: Q and sv are its bits exactly."""
    assert not _gram_eigh(M)[2].any()
    Q, sv = _polar(M)
    U, want_sv, Vt = np.linalg.svd(M, full_matrices=False)
    np.testing.assert_array_equal(Q, U @ Vt)
    np.testing.assert_array_equal(sv, want_sv)


class TestGramRoute:
    """The polar factor from the r-by-r Gram, and what is left to the SVD."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 40),
           st.floats(1e-2, 1e2), st.floats(1.0, 9.5),
           st.integers(0, 2 ** 32 - 1))
    def test_well_conditioned_stacks_match_the_svd(self, n, r, extra, scale,
                                                   spread, seed):
        rng = np.random.default_rng(seed)
        sv = scale * rng.uniform(1.0 / spread, 1.0, (n, r))
        M = _with_singular_values(rng, r + extra, sv)
        assert _gram_eigh(M)[2].all()
        _assert_matches_svd_polar(M, 1e-13)
        _assert_matches_svd_polar(M[0], 1e-13)

    @pytest.mark.parametrize("kappa_sq", [1.0, 9.0, 99.0])
    def test_mnist_width_stack_matches_the_svd(self, rng, kappa_sq):
        sv = np.linspace(1.0, 1.0 / np.sqrt(kappa_sq), 5)
        M = _with_singular_values(rng, 784, np.tile(sv, (8, 1)))
        assert _gram_eigh(M)[2].all()
        _assert_matches_svd_polar(M, 1e-13)

    def test_every_block_of_the_certified_tube_takes_the_gram(self, rng):
        sv = np.array([[1.5, 1.5, 0.5], [1.5, 0.5, 0.5], [1.0, 1.0, 1.0]])
        assert _gram_eigh(_with_singular_values(rng, 10, sv))[2].all()

    @pytest.mark.parametrize("sv", [
        [1.0, 1e-3],          # ill-conditioned: kappa^2 = 1e6
        [2e-8, 1e-8],         # tiny: the Gram's eigenvalues are below RANK_TOL
        [2e160, 1e160],       # huge: the Gram overflows
    ], ids=["ill-conditioned", "tiny", "huge"])
    def test_other_blocks_take_the_svd(self, rng, sv):
        M = _with_singular_values(rng, 6, sv)
        _assert_takes_the_svd(M)
        _assert_takes_the_svd(np.stack([M, M[::-1]]))

    def test_a_stack_routes_each_block_alone(self, rng):
        sv = [[1.0, 0.9], [1.0, 1e-3], [1.2, 1.1]]
        M = _with_singular_values(rng, 6, sv)
        assert list(_gram_eigh(M)[2]) == [True, False, True]
        Q, sv = _polar(M)
        for block, q, block_sv in zip(M, Q, sv, strict=True):
            own_q, own_sv = _polar(block)
            np.testing.assert_array_equal(q, own_q)
            np.testing.assert_array_equal(block_sv, own_sv)
        _assert_matches_svd_polar(M, 1e-13)

    def test_tiny_scale_rank_deficiency_takes_the_svd(self, rng):
        M = _with_singular_values(rng, 6, [2e-13, 1e-13])
        assert not _gram_eigh(M)[2]
        with pytest.raises(RankDeficientError):
            _polar(M)

    @pytest.mark.parametrize("smallest, raises", [
        (0.0, True), (0.5 * RANK_TOL, True), (2.0 * RANK_TOL, False)])
    def test_rank_deficiency_is_decided_by_the_svd(self, rng, smallest,
                                                   raises):
        block = _with_singular_values(rng, 6, [1.0, smallest])
        stack = np.stack([_with_singular_values(rng, 6, [1.0, 0.9]), block])
        for M in (block, stack):
            if raises:
                with pytest.raises(RankDeficientError):
                    _polar(M)
            else:
                assert _polar(M)[1][..., -1].min() > RANK_TOL

    def test_a_nan_stack_raises_a_linear_algebra_error(self, rng):
        M = rng.standard_normal((3, 6, 2))
        M[1, 2, 0] = np.nan
        assert list(_gram_eigh(M)[2]) == [True, False, True]
        with pytest.raises(np.linalg.LinAlgError):
            _polar(M)

    def test_an_infinite_block_gets_what_the_svd_gives(self, rng):
        M = rng.standard_normal((3, 6, 2))
        M[1, 2, 0] = np.inf
        assert list(_gram_eigh(M)[2]) == [True, False, True]
        Q, sv = _polar(M)
        U, want_sv, Vt = np.linalg.svd(M[1], full_matrices=False)
        np.testing.assert_array_equal(Q[1], U @ Vt)
        np.testing.assert_array_equal(sv[1], want_sv)


class TestTangent:
    def test_tangent_input_unchanged(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        v = tangent_project(x, rng.standard_normal((5, 2)))
        again = tangent_project(x, v)
        assert np.allclose(again, v, atol=1e-12)

    def test_base_direction_is_normal(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        out = tangent_project(x, x.mat)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_orthogonal_to_normal_space(self, rng):
        x = project_stiefel(rng.standard_normal((6, 3)))
        out = tangent_project(x, rng.standard_normal((6, 3)))
        for _ in range(10):
            S = rng.standard_normal((3, 3))
            normal = x.mat @ (S + S.T)
            assert abs(np.vdot(out, normal)) < 1e-10

    def test_contraction(self, rng):
        x = project_stiefel(rng.standard_normal((6, 3)))
        for _ in range(20):
            v = rng.standard_normal((6, 3))
            assert np.linalg.norm(tangent_project(x, v)) <= np.linalg.norm(v) + 1e-12

    def test_dimension_mismatch(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        with pytest.raises(ValueError):
            tangent_project(x, np.zeros((4, 2)))

    def test_large_direction_is_tangent_to_relative_precision(self, rng):
        x = project_stiefel(rng.standard_normal((50, 5)))
        v = 1e6 * rng.standard_normal((50, 5))
        out = tangent_project(x, v)
        skew = np.linalg.norm(x.mat.T @ out + out.T @ x.mat)
        assert skew <= 1e-14 * np.linalg.norm(v)


class TestRiemannianGrad:
    def test_zero_gradient(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        assert np.linalg.norm(tangent_project(x, np.zeros((5, 2)))) == 0.0

    def test_tangent_passthrough(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        v = tangent_project(x, rng.standard_normal((5, 2)))
        assert np.allclose(tangent_project(x, v), v, atol=1e-12)

    def test_dpca_ground_truth_stationary(self, small_dataset):
        total = np.zeros(small_dataset.ground_truth.shape)
        for inst in small_dataset.instances():
            total += inst.egrad(small_dataset.ground_truth.mat)
        g = tangent_project(small_dataset.ground_truth, total)
        assert np.linalg.norm(g) <= 1e-8


class TestSubspaceDistance:
    def test_self_distance_zero(self, rng):
        x = random_stiefel_mat(rng, 5, 2)
        assert subspace_distance(x, x) == 0.0

    def test_rotation_invariance(self, rng):
        x = random_stiefel_mat(rng, 5, 2)
        for _ in range(10):
            q = random_orthogonal(rng, 2)
            assert subspace_distance(x, x @ q) < 1e-14

    @pytest.mark.parametrize("angle", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_small_distances_keep_their_relative_accuracy(self, rng, angle):
        # Every column turned out of the span by the same angle e: the
        # distance is 2 sqrt(r) sin(e / 2), where sqrt(2 r - 2 sum(sv))
        # cancels to 0 from e = 1e-10.
        d, r = 784, 5
        q = np.linalg.qr(rng.standard_normal((d, 2 * r)))[0]
        x, away = q[:, :r], q[:, r:]
        y = np.cos(angle) * x + np.sin(angle) * away
        want = 2.0 * np.sqrt(r) * np.sin(angle / 2.0)
        assert subspace_distance(x, y) == pytest.approx(want, rel=1e-5)

    def test_brute_force_oracle(self, rng):
        x = random_stiefel_mat(rng, 4, 2)
        y = random_stiefel_mat(rng, 4, 2)
        val = subspace_distance(x, y)
        assert val <= procrustes_min_by_sampling(rng, x, y, samples=10000) + 1e-12
        sweep = procrustes_min_by_rotation_sweep(x, y)
        assert abs(val - sweep) < 1e-6

    def test_range(self, rng):
        for _ in range(20):
            x = random_stiefel_mat(rng, 6, 3)
            y = random_stiefel_mat(rng, 6, 3)
            val = subspace_distance(x, y)
            assert 0.0 <= val <= 2.0 * np.sqrt(3) + 1e-12

    def test_pseudometric(self, rng):
        for _ in range(50):
            a = random_stiefel_mat(rng, 5, 2)
            b = random_stiefel_mat(rng, 5, 2)
            c = random_stiefel_mat(rng, 5, 2)
            ab = subspace_distance(a, b)
            ba = subspace_distance(b, a)
            assert abs(ab - ba) < 1e-8
            assert ab <= subspace_distance(a, c) + subspace_distance(c, b) + 1e-8

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            subspace_distance(random_stiefel_mat(rng, 5, 2),
                              random_stiefel_mat(rng, 5, 3))


class TestTubeDistance:
    def test_on_manifold_zero(self, rng):
        x = random_stiefel_mat(rng, 5, 2)
        assert tube_distance(x) < 1e-12

    def test_radial_scaling(self, rng):
        x = random_stiefel_mat(rng, 5, 3)
        assert abs(tube_distance(1.5 * x) - 0.5 * np.sqrt(3)) < 1e-10

    def test_outside_tube_flagged(self, rng):
        x = random_stiefel_mat(rng, 5, 3)
        assert tube_distance(2.2 * x) > 0.5


class TestConstants:
    def test_values_10_5(self):
        c = manifold_constants(10, 5)
        assert c.gamma == 0.5
        assert abs(c.zeta - 2.0 * np.sqrt(5)) < 1e-12
        assert abs(c.zeta - 4.47213595499958) < 1e-10

    def test_circle(self):
        assert manifold_constants(2, 1).zeta == 2.0

    def test_gamma_fixed(self):
        for d, r in [(3, 1), (7, 7), (100, 10)]:
            assert manifold_constants(d, r).gamma == 0.5

    def test_diameter_attained(self, rng):
        # Antipodal pairs reach zeta; nothing exceeds it.
        c = manifold_constants(6, 3)
        x = random_stiefel_mat(rng, 6, 3)
        assert abs(np.linalg.norm(x - (-x)) - c.zeta) < 1e-12
        for _ in range(50):
            y = random_stiefel_mat(rng, 6, 3)
            assert np.linalg.norm(x - y) <= c.zeta + 1e-12

    def test_type(self):
        assert isinstance(manifold_constants(4, 2), ManifoldConstants)

    @pytest.mark.parametrize("d, r", [(2, 3), (3, 0)])
    def test_rejects_a_shape_without_a_manifold(self, d, r):
        with pytest.raises(ValueError, match="need d >= r >= 1"):
            manifold_constants(d, r)


def test_random_stiefel_is_on_manifold(rng):
    x = random_stiefel(7, 3, rng)
    assert isinstance(x, StiefelPoint)
