import numpy as np
import pytest

from ddrs.manifold import (
    ManifoldConstants,
    RankDeficientError,
    StiefelPoint,
    TangentVector,
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


class TestProjection:
    def test_identity_block_fixed(self):
        M = np.eye(3)[:, :2]
        assert np.allclose(project_stiefel(M).mat, M)

    def test_column_normalization_rank_one(self):
        out = project_stiefel(np.array([[3.0], [4.0]]))
        assert np.allclose(out.mat, [[0.6], [0.8]])

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


class TestTangent:
    def test_tangent_input_unchanged(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        v = tangent_project(x, rng.standard_normal((5, 2))).dir
        again = tangent_project(x, v).dir
        assert np.allclose(again, v, atol=1e-12)

    def test_base_direction_is_normal(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        out = tangent_project(x, x.mat).dir
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_orthogonal_to_normal_space(self, rng):
        x = project_stiefel(rng.standard_normal((6, 3)))
        out = tangent_project(x, rng.standard_normal((6, 3))).dir
        for _ in range(10):
            S = rng.standard_normal((3, 3))
            normal = x.mat @ (S + S.T)
            assert abs(np.vdot(out, normal)) < 1e-10

    def test_contraction(self, rng):
        x = project_stiefel(rng.standard_normal((6, 3)))
        for _ in range(20):
            v = rng.standard_normal((6, 3))
            assert np.linalg.norm(tangent_project(x, v).dir) <= np.linalg.norm(v) + 1e-12

    def test_dimension_mismatch(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        with pytest.raises(ValueError):
            tangent_project(x, np.zeros((4, 2)))

    def test_skew_invariant_enforced(self):
        x = StiefelPoint(np.eye(3)[:, :2])
        with pytest.raises(ValueError, match="tangent"):
            TangentVector(x, x.mat)


class TestRiemannianGrad:
    def test_zero_gradient(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        assert tangent_project(x, np.zeros((5, 2))).norm == 0.0

    def test_tangent_passthrough(self, rng):
        x = project_stiefel(rng.standard_normal((5, 2)))
        v = tangent_project(x, rng.standard_normal((5, 2))).dir
        assert np.allclose(tangent_project(x, v).dir, v, atol=1e-12)

    def test_dpca_ground_truth_stationary(self, small_dataset):
        total = np.zeros(small_dataset.ground_truth.shape)
        for inst in small_dataset.instances():
            total += inst.egrad(small_dataset.ground_truth.mat)
        g = tangent_project(small_dataset.ground_truth, total)
        assert g.norm <= 1e-8


class TestSubspaceDistance:
    def test_self_distance_zero(self, rng):
        x = random_stiefel_mat(rng, 5, 2)
        assert subspace_distance(x, x) == 0.0

    def test_rotation_invariance(self, rng):
        x = random_stiefel_mat(rng, 5, 2)
        for _ in range(10):
            q = random_orthogonal(rng, 2)
            assert subspace_distance(x, x @ q) < 1e-7

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


def test_random_stiefel_is_on_manifold(rng):
    x = random_stiefel(7, 3, rng)
    assert isinstance(x, StiefelPoint)
