import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ddrs.problems as problems
from ddrs.manifold import StiefelPoint
from ddrs.problems import (
    BadMagicError,
    DPCAInstance,
    Dataset,
    DimMismatchError,
    NonFiniteInputError,
    SolverStallError,
    TruncatedFileError,
    _extreme_eigenvalues,
    _orthonormal_factor,
    _representable_rank,
    gen_synthetic,
    load_idx,
    normalize_and_split,
)

from helpers import (
    assert_certified_product,
    count_gram_products,
    finite_difference_egrad,
    fresh_gram_product,
    gen_synthetic_full,
    gram_loss,
    idx_bytes,
    load_matrix,
    pixel_like_images,
    prox_by_gradient_descent,
    prox_with_injected_residual,
    random_stiefel_mat,
    save_matrix,
)

# The presets' data seed.
PRESET_SEED = 214748364


def _loss(inst, x):
    # An agent's loss from its gradient, as DPCAInstance states it.
    return float(np.vdot(x, inst.egrad(x))) / 2.0


class TestValue:
    def test_zero_data(self, rng):
        inst = DPCAInstance(np.zeros((4, 3)))
        assert _loss(inst, random_stiefel_mat(rng, 3, 2)) == 0.0

    def test_identity_data(self, rng):
        # A = I makes the shifted quadratic vanish identically.
        inst = DPCAInstance(np.eye(4))
        x = random_stiefel_mat(rng, 4, 2)
        assert abs(_loss(inst, x)) < 1e-14

    def test_dense_formula_oracle(self, rng):
        A = rng.standard_normal((6, 4))
        inst = DPCAInstance(A)
        x = rng.standard_normal((4, 2))
        shift = np.linalg.svd(A, compute_uv=False)[0] ** 2
        expected = -0.5 * np.trace(x.T @ (A.T @ A - shift * np.eye(4)) @ x)
        assert abs(_loss(inst, x) - expected) < 1e-12

    def test_constant_shift_on_manifold(self, rng):
        # On the manifold the value is the raw PCA loss plus r/2 * shift.
        A = rng.standard_normal((8, 5))
        inst = DPCAInstance(A)
        x = random_stiefel_mat(rng, 5, 3)
        raw = -0.5 * np.trace(x.T @ A.T @ A @ x)
        assert abs(_loss(inst, x) - (raw + 1.5 * inst.shift)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 6),
           st.floats(-3.0, 3.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @example(4, 3, 2, 0.0, True, 0)  # blank data
    @example(1000, 784, 5, 0.0, False, 0)  # MNIST width
    def test_half_inner_product_with_egrad_is_the_gram_formula(
            self, m, d, r, log_scale, blank, seed):
        # The loss is homogeneous quadratic, so <x, egrad(x)> / 2 is the
        # Gram formula up to the rounding of the two products.
        rng = np.random.default_rng(seed)
        A = (np.zeros((m, d)) if blank
             else rng.standard_normal((m, d)) * 10.0 ** log_scale)
        inst = DPCAInstance(A)
        x = rng.standard_normal((d, r))
        value = _loss(inst, x)
        if blank:
            assert value == 0.0
        u = np.finfo(float).eps / 2
        bound = (8 * (d + 2) * u
                 * (float(np.linalg.norm(inst.gram)) + inst.shift)
                 * float(np.vdot(x, x)))
        assert abs(value - gram_loss(inst, x)) <= bound


class TestGradient:
    def test_zero_data(self, rng):
        inst = DPCAInstance(np.zeros((4, 3)))
        assert np.all(inst.egrad(rng.standard_normal((3, 2))) == 0.0)

    def test_identity_data(self, rng):
        inst = DPCAInstance(np.eye(4))
        assert np.abs(inst.egrad(rng.standard_normal((4, 2)))).max() < 1e-14

    def test_finite_difference_match(self, rng):
        inst = DPCAInstance(rng.standard_normal((7, 4)))
        x = rng.standard_normal((4, 2))
        g = inst.egrad(x)
        fd = finite_difference_egrad(lambda y: gram_loss(inst, y), x, h=1e-6)
        assert np.abs(g - fd).max() <= 1e-5 * (1.0 + np.abs(g).max())


class TestGradientFromProduct:
    @pytest.mark.parametrize("m, d, r", [(6, 4, 2), (1000, 10, 5),
                                         (50, 200, 3)])
    def test_the_gram_product_given_is_bitwise_egrad(self, rng, m, d, r):
        inst = DPCAInstance(rng.standard_normal((m, d)))
        calls = count_gram_products(inst)
        for x in (random_stiefel_mat(rng, d, r), rng.standard_normal((d, r))):
            grad = inst.egrad(x)
            assert calls == [r]
            assert np.array_equal(
                inst.egrad(x, fresh_gram_product(inst, x)), grad)
            # Any given product is taken as it is, with no product made.
            gx = rng.standard_normal((d, r))
            assert np.array_equal(inst.egrad(x, gx), inst.shift * x - gx)
            assert calls == [r]
            calls.clear()


class TestProx:
    def test_zero_data_identity(self, rng):
        inst = DPCAInstance(np.zeros((3, 3)))
        s = rng.standard_normal((3, 2))
        assert np.allclose(inst.prox(0.7, s), s, atol=1e-14)

    def test_vanishing_alpha(self, rng):
        inst = DPCAInstance(rng.standard_normal((5, 3)))
        s = rng.standard_normal((3, 2))
        assert np.abs(inst.prox(1e-12, s) - s).max() < 1e-10

    def test_hand_solved_two_by_two(self):
        inst = DPCAInstance(np.diag([1.0, 2.0]))
        s = np.array([[1.0], [1.0]])
        # shift = 4; system diag(1 + 0.5*3, 1 + 0) = diag(2.5, 1).
        x = inst.prox(0.5, s)
        assert np.allclose(x, [[0.4], [1.0]], atol=1e-14)
        res = inst.residual(0.5, s, x)
        assert np.linalg.norm(res) <= 1e-10 * (1 + np.linalg.norm(s))

    def test_residual_contract(self, rng):
        inst = DPCAInstance(rng.standard_normal((30, 6)))
        for _ in range(20):
            s = rng.standard_normal((6, 3))
            alpha = rng.uniform(0.05, 2.0)
            x = inst.prox(alpha, s)
            res = inst.residual(alpha, s, x)
            assert np.linalg.norm(res) <= 1e-10 * (1 + np.linalg.norm(s))

    def test_rejects_bad_alpha(self, rng):
        inst = DPCAInstance(rng.standard_normal((4, 3)))
        with pytest.raises(ValueError):
            inst.prox(0.0, np.zeros((3, 1)))

    def test_rejects_non_finite(self, rng):
        inst = DPCAInstance(rng.standard_normal((4, 3)))
        s = np.full((3, 1), np.nan)
        with pytest.raises(ValueError):
            inst.prox(0.5, s)

    def test_rejects_a_data_block_that_is_not_a_matrix(self):
        with pytest.raises(ValueError, match="data block must be 2-D"):
            DPCAInstance(np.ones(3))

    def test_inexact_prox_rejects_a_negative_tolerance(self, rng):
        inst = DPCAInstance(rng.standard_normal((4, 3)))
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            inst.prox_inexact(0.5, np.zeros((3, 1)), -1e-3)

    def test_cache_concurrent_insertion(self, rng):
        # Many threads racing on the same step size must agree with the
        # single-threaded answer.
        import threading

        block = rng.standard_normal((20, 6))
        inst = DPCAInstance(block)
        s = rng.standard_normal((6, 3))
        expected = DPCAInstance(block).prox(0.7, s)
        results = [None] * 16
        errors = []

        def work(i):
            try:
                results[i] = inst.prox(0.7, s)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(16)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        for out in results:
            assert np.array_equal(out, expected)

    def test_alternating_step_sizes_race(self, rng):
        # Threads that switch between two step sizes keep replacing the one
        # stored dense factor, or share the one low-rank factor (a rank-1
        # Gram of width 12); each solve must still use its own step size.
        import sys
        import threading

        for block in (rng.standard_normal((20, 6)),
                      rng.standard_normal((1, 12))):
            inst = DPCAInstance(block)
            s = rng.standard_normal((block.shape[1], 3))
            expected = {a: DPCAInstance(block).prox(a, s) for a in (0.3, 0.7)}
            mismatches = []
            errors = []

            def work(i):
                try:
                    for j in range(40):
                        a = (0.3, 0.7)[(i + j) % 2]
                        if not np.array_equal(inst.prox(a, s), expected[a]):
                            mismatches.append(a)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(th.is_alive() for th in threads)
            assert not errors
            assert not mismatches
            assert (inst._factor[0] is None) == (len(block) == 1)

    def test_cache_reproduces_direct_solve(self, rng):
        inst = DPCAInstance(rng.standard_normal((10, 4)))
        s = rng.standard_normal((4, 2))
        first = inst.prox(0.3, s)
        again = inst.prox(0.3, s)
        assert np.array_equal(first, again)
        M = np.eye(4) + 0.3 * (inst.shift * np.eye(4) - inst.gram)
        direct = np.linalg.solve(M, s)
        assert np.abs(first - direct).max() < 1e-12

    def test_non_finite_input_error(self, rng):
        inst = DPCAInstance(rng.standard_normal((4, 3)))
        s = np.array([[1.0], [np.inf], [0.0]])
        with pytest.raises(NonFiniteInputError, match="non-finite"):
            inst.prox(0.5, s)
        with warnings.catch_warnings():
            # Rejected before any arithmetic: the NaN or inf never meets a
            # product that would warn.
            warnings.simplefilter("error", RuntimeWarning)
            for nonfinite in (np.inf, np.nan):
                s[1, 0] = nonfinite
                with pytest.raises(NonFiniteInputError, match="non-finite"):
                    inst.prox_inexact(0.5, s, 1e-8)
                with pytest.raises(NonFiniteInputError, match="non-finite"):
                    inst.prox_inexact(0.5, s, 1e-8, x0=np.zeros((3, 1)))
        assert issubclass(NonFiniteInputError, ValueError)

    @pytest.mark.parametrize("alpha_L", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_inverse_prox_across_conditioning(self, rng, alpha_L):
        # The prox system's spectrum is [1, 1 + alpha L]; the dense inverse
        # of a full-rank Gram must stay as accurate as a direct solve across
        # that range, and exactly symmetric.
        d = 30
        inst = DPCAInstance(rng.standard_normal((60, d)))
        alpha = alpha_L / inst.smoothness()
        s = rng.standard_normal((d, 4))
        x = inst.prox(alpha, s)
        assert inst.prox_rank == d
        bound = 1e-12 * (1.0 + alpha_L) * np.linalg.norm(s)
        assert np.linalg.norm(x - s + alpha * inst.egrad(x)) <= bound
        M = np.eye(d) + alpha * (inst.shift * np.eye(d) - inst.gram)
        assert np.linalg.norm(x - np.linalg.solve(M, s)) <= bound
        inv = inst.prox(alpha, np.eye(d))
        assert np.array_equal(inv, inv.T)

    def test_the_dense_build_holds_two_width_squared_arrays(self, rng):
        # A full-rank Gram fills the sketch and takes the dense inverse,
        # built in eigh's eigenvectors: they and the inverse are 2 d^2
        # doubles, where a copy of either would make 3.
        d = 400
        inst = DPCAInstance(rng.standard_normal((2 * d, d)))
        s = rng.standard_normal((d, 5))
        tracemalloc.start()
        try:
            inst.prox(0.1 / inst.smoothness(), s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.prox_rank == d and inst._factor[0] is not None
        assert peak <= 2.5 * d * d * 8

    def test_step_size_switch_rebuilds_inverse(self, rng):
        inst = DPCAInstance(rng.standard_normal((20, 6)))
        s = rng.standard_normal((6, 3))
        first = inst.prox(0.3, s)
        assert inst._factor[0] == 0.3
        other = inst.prox(0.7, s)
        assert inst._factor[0] == 0.7
        M = np.eye(6) + 0.7 * (inst.shift * np.eye(6) - inst.gram)
        assert np.abs(other - np.linalg.solve(M, s)).max() < 1e-12
        assert np.array_equal(inst.prox(0.3, s), first)

    def test_step_size_switch_keeps_the_low_rank_factor(self, rng):
        # A rank-1 Gram of width 12 keeps at most 4 eigenpairs, its one and
        # any rounding puts above u shift, so it takes the low-rank form, and
        # a switch reuses the factor the first prox built.
        inst = DPCAInstance(rng.standard_normal((1, 12)))
        s = rng.standard_normal((12, 3))
        first = inst.prox(0.3, s)
        factor = inst._factor
        assert factor[0] is None and 1 <= inst.prox_rank <= 4
        other = inst.prox(0.7, s)
        assert inst._factor is factor
        M = np.eye(12) + 0.7 * (inst.shift * np.eye(12) - inst.gram)
        assert np.abs(other - np.linalg.solve(M, s)).max() < 1e-12
        assert np.array_equal(inst.prox(0.3, s), first)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 48), st.floats(0.0, 1.0), st.floats(-3.0, 3.0),
           st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
    @example(30, 0.1, 3.0, -3.0, 0)
    @example(30, 0.9, -3.0, 3.0, 0)
    def test_exact_prox_over_rank_deficient_grams(self, d, rank_share,
                                                  log_aL, log_aL_next, seed):
        # Ranks 1 to d - 1, on both sides of the low-rank form's limit, and
        # one step-size switch: each prox is as accurate as a direct solve.
        rng = np.random.default_rng(seed)
        rank = 1 + int(rank_share * (d - 2))
        inst = DPCAInstance(rng.standard_normal((rank, d))
                            * rng.uniform(0.1, 10.0))
        s = rng.standard_normal((d, 3))
        for log_alpha_L in (log_aL, log_aL_next):
            alpha_L = 10.0 ** log_alpha_L
            alpha = alpha_L / inst.smoothness()
            x = inst.prox(alpha, s)
            bound = 1e-12 * (1.0 + alpha_L) * np.linalg.norm(s)
            assert np.linalg.norm(x - s + alpha * inst.egrad(x)) <= bound
            M = np.eye(d) + alpha * (inst.shift * np.eye(d) - inst.gram)
            assert np.linalg.norm(x - np.linalg.solve(M, s)) <= bound
            low_rank = inst.prox_rank <= problems.LOW_RANK_MAX_SHARE * d
            assert (inst._factor[0] is None) == low_rank
            assert inst.prox_rank >= rank

    @pytest.mark.parametrize("shape, low_rank", [
        ((8, 1000, 10, 5, 0.8, PRESET_SEED), False),
        ((8, 1000, 784, 5, 0.8, PRESET_SEED), True)], ids=["preset", "d784"])
    def test_the_prox_form_each_agent_takes(self, shape, low_rank):
        # The preset's Grams keep every eigenpair (k = d) and take the dense
        # inverse; at d = 784 the spectrum's decay leaves far fewer than d/3,
        # and each factor is the certified sketch's, with room to spare.
        d = shape[2]
        share, margin, _ = problems._SKETCH
        for inst in gen_synthetic(*shape).instances():
            inst.prox(0.01, np.ones((d, 1)))
            assert (inst._factor[0] is None) == low_rank
            if low_rank:
                _assert_same_factor(inst._factor, inst._sketch())
                assert inst.prox_rank <= math.ceil(share * d) - margin
            else:
                assert inst.prox_rank == d

    @pytest.mark.parametrize("shape", [
        (8, 1000, 10, 5, 0.8, PRESET_SEED), (8, 1000, 784, 5, 0.8, PRESET_SEED)],
        ids=["preset", "d784"])
    def test_a_huge_step_size_keeps_the_factor_finite(self, shape):
        # eigh's and the sketch's top eigenvalue can exceed the set-up's
        # shift by rounding; unclamped, 1 + alpha (shift - lam) is negative
        # at alpha shift = 1e17 and the dense factor's weights are NaN.
        d = shape[2]
        s = np.ones((d, 2))
        for inst in gen_synthetic(*shape).instances():
            alpha = 1e17 / inst.shift
            assert np.isfinite(inst.prox(alpha, s)).all()
            if inst._factor[0] is None:
                assert inst._factor[2][0].max() <= inst.shift
            else:
                assert np.isfinite(inst._factor[2]).all()

    def test_optimality_against_gradient_descent(self, rng):
        inst = DPCAInstance(rng.standard_normal((8, 3)))
        s = rng.standard_normal((3, 2))
        alpha = 0.4
        x = inst.prox(alpha, s)
        gd = prox_by_gradient_descent(inst, alpha, s)
        assert np.abs(x - gd).max() < 1e-6


def _assert_same_factor(got, want):
    """Two exact-prox factors are bitwise equal."""
    assert want is not None
    assert got[:2] == want[:2]
    if got[0] is None:
        for a, b in zip(got[2], want[2], strict=True):
            np.testing.assert_array_equal(a, b)
    else:
        np.testing.assert_array_equal(got[2], want[2])


def _low_rank_block(rng, d, rank, near=0):
    """
    A block whose Gram has ``rank`` eigenvalues in [0.1, 1] and ``near``
    more within a decade of ``u shift``, on random orthonormal directions,
    all scaled by one random factor.
    """
    lam = np.concatenate([rng.uniform(0.1, 1.0, rank),
                          problems._UNIT_ROUNDOFF
                          * 10.0 ** rng.uniform(-1.0, 1.0, near)])
    v = np.linalg.qr(rng.standard_normal((d, rank + near)))[0]
    return (v * np.sqrt(lam * rng.uniform(0.1, 10.0))).T


def _sketch_error(factor, gram):
    """``||G - Q_k diag(theta_k) Q_k^T||_F`` of a low-rank factor."""
    theta, qkt = factor[2]
    return np.linalg.norm(gram - (qkt.T * theta) @ qkt)


@pytest.fixture(scope="module")
def mnist_width_agents():
    """The agents of the d = 784 benchmark data, one Gram each."""
    return gen_synthetic(8, 1000, 784, 5, 0.8, PRESET_SEED).instances()


class TestSketchedFactor:
    # The sketch runs from width 66, where ceil(d / 6) = 11 columns leave
    # room for its margin of 10.

    def test_the_certificate_reads_the_whole_error_at_mnist_width(
            self, mnist_width_agents, monkeypatch):
        # The sketch sums ||E||_F^2 over panels of E's rows.  On every
        # d = 784 Gram it takes the factor at a tau 1e-12 above ||E||_F /
        # shift, E formed whole, and refuses it 1e-12 below.
        share, margin, _ = problems._SKETCH
        wholes = [_sketch_error(inst._sketch(), inst.gram) / inst.shift
                  for inst in mnist_width_agents]
        for inst, whole in zip(mnist_width_agents, wholes, strict=True):
            for rel, taken in ((1 + 1e-12, True), (1 - 1e-12, False)):
                monkeypatch.setattr(problems, "_SKETCH",
                                    (share, margin, rel * whole))
                assert (inst._sketch() is not None) == taken

    def test_a_sketch_holds_no_d_by_d_array_at_mnist_width(
            self, mnist_width_agents):
        # One d-by-d error matrix alone is d^2 doubles; a sketch's traced
        # peak measured 3.5 MiB, 0.74 of them.
        inst = mnist_width_agents[0]
        tracemalloc.start()
        try:
            factor = inst._sketch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor is not None
        assert peak < 8 * inst.dim ** 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(66, 200), st.floats(0.0, 1.0), st.integers(0, 8),
           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.integers(0, 2 ** 32 - 1))
    @example(96, 0.0, 0, 1.0, -1.0, 0)  # accepted, rank 1
    @example(200, 0.5, 8, 0.0, 2.0, 3)  # accepted, 4 near pairs kept
    @example(96, 0.2, 8, 3.0, -3.0, 1)  # filled by near pairs
    @example(120, 1.0, 4, -3.0, 3.0, 2)  # filled by rank
    def test_exact_prox_over_sketched_grams(self, d, rank_share, near,
                                            log_aL, log_aL_next, seed):
        # Ranks from 1 to past the sketch's width, with up to 8 eigenvalues
        # near u shift, and one step-size switch: each prox is as accurate
        # as a direct solve, an accepted sketch is the factor and meets its
        # certificate, and a refused one leaves eigh's factor.
        rng = np.random.default_rng(seed)
        share, margin, tau = problems._SKETCH
        rank = 1 + int(rank_share * (math.ceil(share * d) + 4))
        block = _low_rank_block(rng, d, rank, near)
        inst = DPCAInstance(block)
        sketched = inst._sketch()
        s = rng.standard_normal((d, 3))
        for log_alpha_L in (log_aL, log_aL_next):
            alpha_L = 10.0 ** log_alpha_L
            alpha = alpha_L / inst.smoothness()
            x = inst.prox(alpha, s)
            bound = 1e-12 * (1.0 + alpha_L) * np.linalg.norm(s)
            assert np.linalg.norm(x - s + alpha * inst.egrad(x)) <= bound
            M = np.eye(d) + alpha * (inst.shift * np.eye(d) - inst.gram)
            assert np.linalg.norm(x - np.linalg.solve(M, s)) <= bound
        if sketched is None:
            eigh = DPCAInstance(block)._eigh_factor(alpha)
            _assert_same_factor(inst._factor, eigh)
        else:
            _assert_same_factor(inst._factor, sketched)
            assert inst.prox_rank <= math.ceil(share * d) - margin
            assert _sketch_error(sketched, inst.gram) <= tau * inst.shift

    def test_a_filled_sketch_leaves_the_eigh_factor(self, rng, monkeypatch):
        # Rank 100 fills the 20 columns at d = 120 whatever the certificate
        # allows; the dense factor eigh gives is rebuilt on a step-size
        # switch after the same deterministic sketch fails again.
        block = rng.standard_normal((100, 120))
        inst = DPCAInstance(block)
        share, margin, _ = problems._SKETCH
        monkeypatch.setattr(problems, "_SKETCH", (share, margin, math.inf))
        assert inst._sketch() is None
        sketches = []
        sketch = inst._sketch
        inst._sketch = lambda: sketches.append(1) or sketch()
        s = rng.standard_normal((120, 2))
        inst.prox(0.3, s)
        assert inst._factor[0] is not None
        _assert_same_factor(inst._factor,
                            DPCAInstance(block)._eigh_factor(0.3))
        inst.prox(0.7, s)
        _assert_same_factor(inst._factor,
                            DPCAInstance(block)._eigh_factor(0.7))
        assert sketches == [1, 1]

    def test_a_failed_certificate_leaves_the_eigh_factor(self, rng,
                                                         monkeypatch):
        # Rank 3 at d = 120 sketches with room to spare; a zero tau refuses
        # its certificate, and the factor is eigh's.
        block = _low_rank_block(rng, 120, 3)
        inst = DPCAInstance(block)
        assert inst._sketch() is not None
        share, margin, _ = problems._SKETCH
        monkeypatch.setattr(problems, "_SKETCH", (share, margin, 0.0))
        assert inst._sketch() is None
        inst.prox(0.3, rng.standard_normal((120, 2)))
        assert inst._factor[0] is None
        _assert_same_factor(inst._factor,
                            DPCAInstance(block)._eigh_factor(0.3))

    def test_concurrent_sketches_of_one_gram_are_bitwise_equal(self, rng):
        # Each sketch draws from a generator of its own: two instances of
        # one Gram, factored at once on two threads, equal a serial one.
        import threading

        block = _low_rank_block(rng, 240, 12, near=4)
        s = rng.standard_normal((240, 2))
        insts = [DPCAInstance(block) for _ in range(3)]
        barrier = threading.Barrier(2, timeout=60)

        def work(inst):
            barrier.wait()
            inst.prox(0.1, s)

        threads = [threading.Thread(target=work, args=(inst,))
                   for inst in insts[:2]]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        insts[2].prox(0.1, s)
        want = insts[2]._sketch()
        for inst in insts:
            _assert_same_factor(inst._factor, want)


class TestProxInexact:
    def test_residual_floor_at_a_huge_step_size_is_inf_without_a_warning(
            self, rng):
        # (10 u (1 + alpha shift))^2 overflows at alpha = 1e300.
        inst = DPCAInstance(rng.standard_normal((6, 4)))
        s = rng.standard_normal((4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert inst.residual_floor(1e300, s) == np.inf
            assert 0 < inst.residual_floor(0.5, s) < 1e-20

    def test_zero_tolerance_exact_path(self, rng):
        inst = DPCAInstance(rng.standard_normal((6, 4)))
        s = rng.standard_normal((4, 2))
        x, mu, gx = inst.prox_inexact(0.5, s, 0.0)
        assert np.array_equal(x, inst.prox(0.5, s))
        assert np.linalg.norm(mu) < 1e-12
        assert np.array_equal(gx, inst._gram_apply(x))
        assert np.array_equal(mu, inst.residual(0.5, s, x))

    def test_huge_tolerance_returns_start(self, rng):
        inst = DPCAInstance(rng.standard_normal((6, 4)))
        s = rng.standard_normal((4, 2))
        x, mu, gx = inst.prox_inexact(0.5, s, 1e6)
        assert np.array_equal(x, s)
        assert float(np.vdot(mu, mu)) <= 1e6

    def test_certified_tolerance(self, rng):
        inst = DPCAInstance(rng.standard_normal((40, 6)))
        calls = count_gram_products(inst)
        for _ in range(10):
            s = rng.standard_normal((6, 3))
            del calls[:]
            x, mu, gx = inst.prox_inexact(0.8, s, 1e-8)
            assert_certified_product(inst, 0.8, s, x, mu, gx, calls)
            recomputed = inst.residual(0.8, s, x)
            assert float(np.vdot(recomputed, recomputed)) <= 1e-8

    def test_tiny_tolerance_uses_refinement(self, rng):
        inst = DPCAInstance(rng.standard_normal((20, 5)))
        s = rng.standard_normal((5, 2))
        x, mu, gx = inst.prox_inexact(0.6, s, 1e-28)
        assert float(np.vdot(mu, mu)) <= 1e-28

    def test_a_tolerance_below_rounding_certifies_the_floor(self, rng,
                                                           monkeypatch):
        # 1e-40 lies far below the rounding floor of the computed residual:
        # CG alone certifies the floor, with no exact prox or its factor.
        inst = DPCAInstance(rng.standard_normal((20, 5)))
        s = rng.standard_normal((5, 2))
        called = []
        for name in ("prox", "_solve"):
            monkeypatch.setattr(inst, name,
                                lambda *args, name=name: called.append(name))
        x, mu, gx = inst.prox_inexact(0.6, s, 1e-40)
        assert np.array_equal(mu, inst.residual(0.6, s, x))
        assert 1e-40 < float(np.vdot(mu, mu)) <= inst.residual_floor(0.6, s)
        assert called == []
        assert inst.prox_rank is None

    def test_warm_start(self, rng):
        inst = DPCAInstance(rng.standard_normal((40, 6)))
        s = rng.standard_normal((6, 3))
        # None starts from s, bit for bit as without x0.
        x, mu, gx = inst.prox_inexact(0.8, s, 1e-8, x0=None)
        assert np.array_equal(x, inst.prox_inexact(0.8, s, 1e-8)[0])
        # A start that already meets the tolerance is returned unchanged,
        # as a copy.
        x0 = inst.prox(0.8, s)
        x, mu, gx = inst.prox_inexact(0.8, s, 1e-20, x0=x0)
        assert np.array_equal(x, x0) and x is not x0
        # A nearby start certifies a tight tolerance.
        x, mu, gx = inst.prox_inexact(0.8, s, 1e-26, x0=x0 + 1e-6)
        recomputed = inst.residual(0.8, s, x)
        assert float(np.vdot(recomputed, recomputed)) <= 1e-26

    def test_a_solve_that_takes_no_cg_step_makes_one_product(self, rng):
        inst = DPCAInstance(rng.standard_normal((40, 6)))
        s = rng.standard_normal((6, 3))
        x0 = inst.prox(0.8, s)
        calls = count_gram_products(inst)
        # A cold start that meets the target: its own product certifies it.
        x, mu, gx = inst.prox_inexact(0.8, s, 1e-20, x0=x0)
        assert np.array_equal(x, x0) and calls == [3]
        assert np.array_equal(gx, x0.T.dot(inst.gram).T)
        # A start with a stand-in product pays only the certificate's.
        del calls[:]
        x, mu, gx = inst.prox_inexact(0.8, s, 1e-20, x0=x0, gx0=gx)
        assert np.array_equal(x, x0) and calls == [3]
        assert np.array_equal(gx, x0.T.dot(inst.gram).T)
        # A start that needs CG pays one (d, 2r) block per iteration, and
        # the last block's products certify the result.
        del calls[:]
        x, mu, gx = inst.prox_inexact(0.8, s, 1e-8, x0=x0 + 1e-3,
                                      gx0=gx + 1e-3 * inst.gram.sum(axis=1,
                                                                    keepdims=True))
        assert calls and set(calls) == {6}
        assert_certified_product(inst, 0.8, s, x, mu, gx, calls)

    @pytest.mark.parametrize("directions", [1, 2, 3])
    def test_a_solve_of_j_iterations_makes_j_blocks(self, rng, directions):
        # A start whose error lies in j eigenvectors of the Gram matrix is
        # solved by j CG iterations; no guard trips, so the solve makes j
        # products, each of the (d, 2r) block [x | p], and none more.
        d, r, alpha = 8, 3, 0.7
        inst = DPCAInstance(rng.standard_normal((30, d)))
        vecs = np.linalg.eigh(inst.gram)[1]
        s = rng.standard_normal((d, r))
        err = vecs[:, :directions] @ rng.standard_normal((directions, r))
        x0 = inst.prox(alpha, s) + 1e-3 * err
        calls = count_gram_products(inst)
        for gx0 in (None, fresh_gram_product(inst, x0)):
            del calls[:]
            x, mu, gx = inst.prox_inexact(alpha, s, 1e-20, x0=x0, gx0=gx0)
            start = [r] if gx0 is None else []
            assert calls == start + [2 * r] * directions
            assert_certified_product(inst, alpha, s, x, mu, gx, calls)
            res = inst.residual(alpha, s, x)
            assert float(np.vdot(res, res)) <= 1e-20

    def test_a_step_larger_than_the_iterate_trips_the_update_guard(self, rng):
        # s = 0 and a huge start along one eigenvector: one CG step lands
        # within rounding of the prox, 0, so the last update is some 1e16
        # times the iterate.  The certificate takes a fresh product.
        d, r, alpha = 6, 2, 0.5
        inst = DPCAInstance(rng.standard_normal((20, d)))
        v = np.linalg.eigh(inst.gram)[1][:, 2]
        s = np.zeros((d, r))
        x0 = 1e6 * np.outer(v, rng.standard_normal(r))
        calls = count_gram_products(inst)
        x, mu, gx = inst.prox_inexact(alpha, s, 1e-16, x0=x0)
        assert calls == [r, 2 * r, r]
        assert np.linalg.norm(x) < 1e-6 * np.linalg.norm(x0)
        assert np.array_equal(gx, fresh_gram_product(inst, x))
        assert np.array_equal(mu, inst.residual(alpha, s, x))
        assert float(np.vdot(mu, mu)) <= 1e-16

    @pytest.mark.parametrize("times_floor", [1e-10, 0.5])
    def test_a_tolerance_below_the_floor_trips_the_margin_guard(
            self, rng, times_floor):
        # Below the rounding floor the margin (||mu|| + sqrt(floor))^2 <= eps
        # cannot hold: every solve that runs CG certifies from a fresh
        # product of its x.
        inst = DPCAInstance(rng.standard_normal((20, 5)))
        calls = count_gram_products(inst)
        for _ in range(5):
            s = rng.standard_normal((5, 2))
            eps = times_floor * inst.residual_floor(0.6, s)
            del calls[:]
            x, mu, gx = inst.prox_inexact(0.6, s, eps)
            assert calls[0] == 2 and calls[-1] == 2 and 4 in calls
            assert np.array_equal(gx, fresh_gram_product(inst, x))
            assert np.array_equal(mu, inst.residual(0.6, s, x))
            assert float(np.vdot(mu, mu)) <= max(
                eps, inst.residual_floor(0.6, s))

    def test_a_start_product_that_lies_is_caught_by_the_certificate(self, rng):
        # gx0 chosen so the start's residual reads as rounding alone: CG
        # takes no step, the fresh certificate misses, and CG restarts
        # from it.
        inst = DPCAInstance(rng.standard_normal((40, 6)))
        s = rng.standard_normal((6, 3))
        alpha = 0.8
        gx0 = ((1.0 + alpha * inst.shift) * s - s) / alpha
        assert np.linalg.norm(s - inst.apply_system(alpha, s, gx0)) < 1e-12
        assert np.linalg.norm(inst.residual(alpha, s, s)) > 1.0
        calls = count_gram_products(inst)
        x, mu, gx = inst.prox_inexact(alpha, s, 1e-16, x0=s, gx0=gx0)
        # The fresh certificate of the start comes first, then CG's blocks.
        assert calls[0] == 3 and set(calls[1:]) == {6}
        assert_certified_product(inst, alpha, s, x, mu, gx, calls)
        res = inst.residual(alpha, s, x)
        assert float(np.vdot(res, res)) <= 1e-16

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(
        ["other point", "zeros", "scaled", "noise", "huge", "claims solved"]),
        st.floats(1e-30, 1e-4), st.floats(1e-3, 1e3))
    def test_a_wrong_start_product_never_returns_an_uncertified_x(
            self, seed, kind, eps, alpha_shift):
        rng = np.random.default_rng(seed)
        d, r = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        inst = DPCAInstance(rng.standard_normal((int(rng.integers(d, 3 * d)), d)))
        alpha = alpha_shift / inst.shift
        s = rng.standard_normal((d, r))
        x0 = s + rng.standard_normal((d, r))
        gx0 = {"other point": inst._gram_apply(rng.standard_normal((d, r))),
               "zeros": np.zeros((d, r)),
               "scaled": 1.5 * inst._gram_apply(x0),
               "noise": inst._gram_apply(x0) + rng.standard_normal((d, r)),
               "huge": 1e12 * rng.standard_normal((d, r)),
               # Makes the start's residual read as rounding alone.
               "claims solved": (x0 + alpha * inst.shift * x0 - s) / alpha,
               }[kind]
        calls = count_gram_products(inst)
        try:
            x, mu, gx = inst.prox_inexact(alpha, s, eps, x0=x0, gx0=gx0)
        except SolverStallError:
            return
        assert_certified_product(inst, alpha, s, x, mu, gx, calls)
        res = inst.residual(alpha, s, x)
        assert float(np.vdot(res, res)) <= max(eps, inst.residual_floor(alpha, s))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), st.floats(-3.0, 3.0),
           st.floats(-30.0, -4.0), st.sampled_from(
               ["from s", "near", "huge", "huge, zero product",
                "other point's product", "claims solved"]),
           st.integers(0, 2 ** 32 - 1))
    def test_a_returned_prox_is_certified_by_a_fresh_product(
            self, d, r, log_alpha_shift, log_eps, start, seed):
        # Whatever the start and its stand-in product, a fresh product of
        # the returned x certifies it, or the solve raises.
        rng = np.random.default_rng(seed)
        inst = DPCAInstance(rng.standard_normal((int(rng.integers(1, 3 * d + 1)), d)))
        alpha, eps = 10.0 ** log_alpha_shift / inst.shift, 10.0 ** log_eps
        s = rng.standard_normal((d, r))
        noise = rng.standard_normal((d, r))
        x0, gx0 = s + noise, None
        if start == "from s":
            x0 = None
        elif start == "near":
            x0 = inst.prox(alpha, s) + 1e-6 * noise
            gx0 = fresh_gram_product(inst, x0)
        elif start.startswith("huge"):
            x0 = 1e8 * noise
            if start == "huge, zero product":
                gx0 = np.zeros((d, r))
        elif start == "other point's product":
            gx0 = fresh_gram_product(inst, rng.standard_normal((d, r)))
        else:
            # Makes the start's residual read as rounding alone.
            gx0 = (x0 + alpha * inst.shift * x0 - s) / alpha
        calls = count_gram_products(inst)
        try:
            x, mu, gx = inst.prox_inexact(alpha, s, eps, x0=x0, gx0=gx0)
        except SolverStallError:
            return
        assert_certified_product(inst, alpha, s, x, mu, gx, calls)
        res = inst.residual(alpha, s, x)
        assert float(np.vdot(res, res)) <= max(eps, inst.residual_floor(alpha, s))

    def test_injected_residual_is_exact(self, rng):
        inst = DPCAInstance(rng.standard_normal((10, 4)))
        s = rng.standard_normal((4, 2))
        mu_target = 1e-5 * rng.standard_normal((4, 2))
        x, mu = prox_with_injected_residual(inst, 0.5, s, mu_target)
        assert np.abs(mu - mu_target).max() < 1e-14


class TestProxGeometry:
    def test_isometry_bands(self, rng):
        # ||s - s'|| / (1 + aL) <= ||prox(s) - prox(s')|| <= ||s - s'|| / (1 - aL)
        inst = DPCAInstance(rng.standard_normal((30, 5)))
        L = inst.smoothness()
        alpha = 0.5 / L
        for _ in range(50):
            s1 = rng.standard_normal((5, 2))
            s2 = rng.standard_normal((5, 2))
            gap = np.linalg.norm(s1 - s2)
            out = np.linalg.norm(inst.prox(alpha, s1) - inst.prox(alpha, s2))
            assert gap / (1 + alpha * L) - 1e-9 <= out <= gap / (1 - alpha * L) + 1e-9

    def test_prox_distance_bound(self, rng):
        # ||s - prox(s)|| <= alpha (3 ||egrad(0)|| + 2 L ||s||) for alpha < 1/(2L)
        inst = DPCAInstance(rng.standard_normal((30, 5)))
        L = inst.smoothness()
        alpha = 0.4 / L
        g0 = np.linalg.norm(inst.egrad(np.zeros((5, 2))))
        for _ in range(50):
            s = rng.standard_normal((5, 2))
            gap = np.linalg.norm(s - inst.prox(alpha, s))
            assert gap <= alpha * (3 * g0 + 2 * L * np.linalg.norm(s)) + 1e-12


class TestSmoothness:
    def test_zero_data(self):
        assert DPCAInstance(np.zeros((3, 3))).smoothness() == 0.0

    def test_diagonal_case(self):
        # spectrum {1, 4}; shifted operator has norm 4 - 1 = 3.
        assert abs(DPCAInstance(np.diag([1.0, 2.0])).smoothness() - 3.0) < 1e-12

    def test_lipschitz_bound_sampled(self, rng):
        inst = DPCAInstance(rng.standard_normal((20, 4)))
        L = inst.smoothness()
        for _ in range(100):
            x = rng.standard_normal((4, 2))
            y = rng.standard_normal((4, 2))
            lhs = np.linalg.norm(inst.egrad(x) - inst.egrad(y))
            assert lhs <= L * np.linalg.norm(x - y) + 1e-10


def _assert_extremes_match_the_dense_spectrum(A):
    inst = DPCAInstance(A)
    evals = np.linalg.eigvalsh(inst.gram)
    ref_shift = max(evals[-1], 0.0)
    ref_L = ref_shift - max(evals[0], 0.0)
    try:
        np.linalg.cholesky(inst.gram)
    except np.linalg.LinAlgError:
        pass
    else:
        # A Gram that factors takes both from the dense spectrum, bit for bit.
        assert (inst.shift, inst.smoothness()) == (ref_shift, ref_L)
    assert abs(inst.shift - ref_shift) <= 1e-14 * ref_shift
    assert abs(inst.smoothness() - ref_L) <= 1e-12 * ref_shift


class TestExtremeEigenvalues:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.integers(1, 40),
                     st.integers(184, 256)),
           st.sampled_from(["gaussian", "synthetic"]),
           st.booleans(), st.integers(0, 2 ** 32 - 1), st.data())
    def test_matches_the_dense_spectrum(self, d, kind, fewer_rows, seed, data):
        # Fewer rows than columns, or singular values xi**j below the
        # rounding level, make the Gram singular and its Cholesky fail.
        if fewer_rows and d > 1:
            m = data.draw(st.integers(1, d - 1), label="m")
        else:
            m = data.draw(st.integers(d, 2 * d + 5), label="m")
        if kind == "gaussian":
            A = np.random.default_rng(seed).standard_normal((m, d))
        else:
            xi = data.draw(st.floats(0.3, 0.95), label="xi")
            A = gen_synthetic(2, max(m, (d + 1) // 2), d, 1, xi, seed).blocks[0][:m]
        _assert_extremes_match_the_dense_spectrum(A)

    @pytest.mark.parametrize("d", [1, 2, 3, 200])
    def test_zero_block(self, d):
        assert _extreme_eigenvalues(np.zeros((d, d))) == (0.0, 0.0)
        inst = DPCAInstance(np.zeros((4, d)))
        assert inst.shift == 0.0 and inst.smoothness() == 0.0

    @pytest.mark.parametrize("A", [[[3.0]], [[-2.0], [0.5]], [[1.0, -1.0]],
                                   [[1.0, 2.0], [0.5, -1.0], [2.0, 0.0]]])
    def test_one_and_two_columns(self, A):
        _assert_extremes_match_the_dense_spectrum(np.array(A))

    def test_top_eigenvector_orthogonal_to_ones(self):
        # The data are symmetric in columns 0 and 1 except for one row along
        # e0 - e1, which carries the largest eigenvalue, so ones(d) has no
        # component along the top eigenvector.
        d = 200
        R = np.random.default_rng(5).standard_normal((50, d))
        R[:, 1] = R[:, 0]
        top = np.zeros(d)
        top[:2] = 20.0, -20.0
        A = np.vstack([top, R])
        top_vec = np.linalg.eigh(A.T @ A)[1][:, -1]
        assert abs(top_vec @ np.ones(d)) < 1e-12
        _assert_extremes_match_the_dense_spectrum(A)

    def test_a_full_rank_gram_takes_the_dense_spectrum(self):
        A = np.random.default_rng(1).standard_normal((576, 192))
        gram = A.T @ A
        evals = np.linalg.eigvalsh(gram)
        assert evals[0] > 0
        assert _extreme_eigenvalues(gram) == (evals[0], evals[-1])

    def test_a_singular_gram_has_smallest_eigenvalue_zero(self):
        A = np.random.default_rng(1).standard_normal((96, 192))
        lam_min, lam_max = _extreme_eigenvalues(A.T @ A)
        assert lam_min == 0.0
        assert lam_max == pytest.approx(np.linalg.eigvalsh(A.T @ A)[-1],
                                        rel=1e-14)

    @pytest.mark.parametrize("m, d", [(1, 2), (3, 10), (20, 64)])
    def test_a_singular_gram_takes_lanczos_at_any_width(self, m, d):
        # Every Gram takes the Cholesky test; one that fails gets its largest
        # eigenvalue from Lanczos and its smallest as exactly 0.
        gram = np.random.default_rng(d).standard_normal((m, d))
        gram = gram.T @ gram
        top = problems._lanczos_top(gram)
        assert top == pytest.approx(np.linalg.eigvalsh(gram)[-1], rel=1e-14)
        assert _extreme_eigenvalues(gram) == (0.0, top)

    def test_a_solve_out_of_steps_takes_the_dense_spectrum(self,
                                                          monkeypatch):
        # A singular Gaussian Gram's clustered top needs dozens of steps.
        A = np.random.default_rng(1).standard_normal((96, 192))
        gram = A.T @ A
        evals = np.linalg.eigvalsh(gram)
        assert problems._lanczos_top(gram) == pytest.approx(evals[-1],
                                                            rel=1e-14)
        monkeypatch.setattr(problems, "_LANCZOS_MAX_STEPS", 8)
        assert problems._lanczos_top(gram) is None
        assert _extreme_eigenvalues(gram) == (max(evals[0], 0.0),
                                              max(evals[-1], 0.0))

    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_a_low_rank_gram_ends_lanczos_early(self, rank):
        # The Krylov space holds the whole range after rank + 1 steps; the
        # next basis vector is rounding, and the top Ritz value is exact.
        d = 200
        A = np.random.default_rng(rank).standard_normal((rank, d))
        gram = A.T @ A
        top = np.linalg.eigvalsh(gram)[-1]
        assert problems._lanczos_top(gram) == pytest.approx(top, rel=1e-14)
        assert _extreme_eigenvalues(gram) == (0.0, problems._lanczos_top(gram))


class TestSynthetic:
    def test_default_shapes(self, bench_dataset):
        assert bench_dataset.n == 8
        assert all(b.shape == (1000, 10) for b in bench_dataset.blocks)
        assert bench_dataset.ground_truth.shape == (10, 5)

    def test_ground_truth_orthonormal(self, bench_dataset):
        v = bench_dataset.ground_truth.mat
        assert np.abs(v.T @ v - np.eye(5)).max() < 1e-12

    def test_spectrum_matches_decay(self, small_dataset):
        A = np.vstack(small_dataset.blocks)
        sv = np.linalg.svd(A, compute_uv=False)
        assert np.abs(sv - 0.8 ** np.arange(1, 7)).max() < 1e-12

    def test_truth_minimizes_total_objective(self, rng, small_dataset):
        insts = small_dataset.instances()
        v = small_dataset.ground_truth.mat
        best = sum(gram_loss(inst, v) for inst in insts)
        for _ in range(100):
            y = random_stiefel_mat(rng, 6, 2)
            assert best <= sum(gram_loss(inst, y) for inst in insts) + 1e-12

    def test_deterministic(self):
        a = gen_synthetic(3, 20, 5, 2, 0.8, seed=5)
        b = gen_synthetic(3, 20, 5, 2, 0.8, seed=5)
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)

    def test_rejects_bad_xi(self):
        with pytest.raises(ValueError):
            gen_synthetic(2, 10, 4, 2, 1.0, seed=0)

    def test_rejects_infeasible_dims(self):
        with pytest.raises(ValueError):
            gen_synthetic(2, 1, 40, 2, 0.8, seed=0)

    @pytest.mark.parametrize("r", [0, 5])
    def test_rejects_a_rank_outside_the_width(self, r):
        with pytest.raises(ValueError, match="need 1 <= r <= d"):
            gen_synthetic(2, 10, 4, r, 0.8, seed=0)

    def test_a_dataset_needs_blocks_of_one_width(self):
        with pytest.raises(ValueError, match="at least one block"):
            Dataset([])
        with pytest.raises(ValueError, match="share the feature dimension"):
            Dataset([np.ones((2, 3)), np.ones((2, 4))])


# The preset shape, the golden d = 64 shape and MNIST width, where only 324
# of the 784 directions are formed.
EQUIVALENT_SHAPES = [
    (8, 1000, 10, 5, 0.8, PRESET_SEED),
    (8, 1000, 64, 5, 0.8, PRESET_SEED),
    (8, 1000, 784, 5, 0.8, PRESET_SEED),
]


class TestSyntheticTruncation:
    @pytest.mark.parametrize("shape", EQUIVALENT_SHAPES)
    def test_bitwise_equal_to_full_factorization(self, shape):
        ref = gen_synthetic_full(*shape)
        got = gen_synthetic(*shape)
        assert got.n == ref.n
        for a, b in zip(got.blocks, ref.blocks, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got.ground_truth.mat, ref.ground_truth.mat)

    @pytest.mark.parametrize("shape", [(8000, 324), (240, 6), (50, 50),
                                       (7, 1), (1, 1)])
    def test_in_place_factor_equals_numpy_qr(self, shape):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        want = np.linalg.qr(a)[0]
        at = np.ascontiguousarray(a.T)
        got = _orthonormal_factor(at)
        np.testing.assert_array_equal(got, want)
        assert np.shares_memory(got, at)

    def test_cut_applies_at_mnist_width(self):
        assert _representable_rank(784, 5, 0.8) == 324
        assert _representable_rank(64, 5, 0.8) == 64

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.floats(0.05, 0.29), st.integers(0, 2 ** 32 - 1),
           st.data())
    def test_close_to_full_factorization_where_cut(self, n, xi, seed, data):
        # Up to xi = 0.29 a width d <= 60 can lose directions; draw one that does.
        kept = _representable_rank(60, 1, xi)
        d = data.draw(st.integers(kept + 1, 60))
        r = data.draw(st.integers(1, min(5, kept)))
        assert _representable_rank(d, r, xi) == kept
        m_per = data.draw(st.integers(-(-d // n), -(-d // n) + 20))
        ref = gen_synthetic_full(n, m_per, d, r, xi, seed)
        got = gen_synthetic(n, m_per, d, r, xi, seed)
        # One product per block rounds the rows at the GEMM kernel's edge
        # differently from one product over all rows: up to 5 ulps of the
        # largest entry over 3000 random shapes of this range.
        scale = max(float(np.abs(b).max()) for b in ref.blocks)
        for a, b in zip(got.blocks, ref.blocks, strict=True):
            assert float(np.abs(a - b).max()) <= 8 * np.spacing(scale)
        np.testing.assert_array_equal(got.ground_truth.mat, ref.ground_truth.mat)

    @given(st.integers(1, 2000), st.integers(1, 2000), st.floats(1e-3, 0.999))
    def test_rank_bounds(self, d, r, xi):
        r = min(r, d)
        k = _representable_rank(d, r, xi)
        assert r <= k <= d
        if xi ** (d - 1) >= 2.0 ** -104:
            assert k == d
        elif k > r:
            # The first direction left out is below the cutoff.
            assert xi ** k < 2.0 ** -104

    def test_ground_truth_does_not_pin_the_factor(self):
        truth = gen_synthetic(2, 20, 10, 3, 0.8, seed=1).ground_truth.mat
        assert truth.base is None

    def test_peak_memory_at_mnist_width(self):
        tracemalloc.start()
        try:
            data = gen_synthetic(*EQUIVALENT_SHAPES[-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = sum(b.nbytes for b in data.blocks)
        assert peak < 1.6 * block_bytes


class TestIdxLoader:
    FIXTURE = idx_bytes(0x00000803, (2, 2, 2), [0, 255, 0, 255, 255, 0, 255, 0])

    def test_fixture_decodes_bit_exactly(self, tmp_path):
        path = tmp_path / "images.idx"
        path.write_bytes(self.FIXTURE)
        out = load_idx(path)
        assert out.shape == (2, 4)
        assert np.array_equal(out, [[0, 255, 0, 255], [255, 0, 255, 0]])

    def test_normalized_entries_binary(self, tmp_path):
        path = tmp_path / "images.idx"
        path.write_bytes(self.FIXTURE)
        ds = normalize_and_split(load_idx(path), 2, seed=0)
        stacked = np.vstack(ds.blocks)
        assert set(np.unique(stacked)) == {0.0, 1.0}

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(idx_bytes(0x00000801, (2, 2, 2), [0] * 8))
        with pytest.raises(BadMagicError):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(idx_bytes(0x00000803, (3, 2, 2), [0] * 8))
        with pytest.raises(TruncatedFileError):
            load_idx(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00")
        with pytest.raises(TruncatedFileError):
            load_idx(path)

    @pytest.mark.parametrize("size", [0, 3])
    def test_shorter_than_the_magic(self, tmp_path, size):
        path = tmp_path / "stub.idx"
        path.write_bytes(struct.pack(">I", 0x00000803)[:size])
        with pytest.raises(TruncatedFileError, match="shorter than the 4-byte"):
            load_idx(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.idx"
        path.write_bytes(idx_bytes(0x00000803, (1, 2, 2), [0] * 6))
        with pytest.raises(DimMismatchError):
            load_idx(path)

    def test_nonpositive_dims(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(idx_bytes(0x00000803, (0, 2, 2), []))
        with pytest.raises(DimMismatchError):
            load_idx(path)


class TestNormalizeAndSplit:
    def test_entries_in_unit_interval(self, rng, tmp_path):
        raw = rng.integers(0, 256, size=(20, 6)).astype(float)
        ds = normalize_and_split(raw, 4, seed=1)
        stacked = np.vstack(ds.blocks)
        assert stacked.min() >= 0.0 and stacked.max() <= 1.0

    def test_drops_remainder(self, rng):
        raw = rng.integers(0, 256, size=(10, 3)).astype(float)
        ds = normalize_and_split(raw, 3, seed=1)
        assert ds.n == 3
        assert all(b.shape == (3, 3) for b in ds.blocks)

    def test_too_few_rows(self, rng):
        with pytest.raises(DimMismatchError):
            normalize_and_split(rng.random((2, 3)), 5, seed=0)

    def test_deterministic(self, rng):
        raw = rng.integers(0, 256, size=(12, 4)).astype(float)
        a = normalize_and_split(raw, 3, seed=9)
        b = normalize_and_split(raw, 3, seed=9)
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)

    def test_blocks_match_the_full_copy_split_within_the_input_size(
            self, tmp_path):
        images = pixel_like_images(6000, 28, 28, seed=5)
        path = tmp_path / "images.idx"
        path.write_bytes(idx_bytes(0x00000803, images.shape, images.ravel()))
        tracemalloc.start()
        try:
            matrix = load_idx(path)
            ds = normalize_and_split(matrix, 8, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.dtype == np.uint8
        # The split as one full-size scaled copy, shuffled into another.
        X = matrix.astype(float) / 255.0
        X = X[np.random.default_rng(3).permutation(X.shape[0])]
        m = X.shape[0] // 8
        for i, block in enumerate(ds.blocks):
            assert block.flags.c_contiguous
            assert np.array_equal(block, X[i * m:(i + 1) * m])
        # Loading keeps the file's bytes, not a float copy of them.
        assert peak < 1.2 * sum(block.nbytes for block in ds.blocks)


class TestMatrixIO:
    def test_round_trip(self, rng, tmp_path):
        M = rng.standard_normal((7, 3))
        path = tmp_path / "mat.txt"
        save_matrix(path, M)
        out = load_matrix(path)
        assert np.array_equal(out, M)

    def test_header_format(self, rng, tmp_path):
        path = tmp_path / "mat.txt"
        save_matrix(path, np.zeros((2, 5)))
        assert path.read_text().splitlines()[0] == "2 5"


def test_dataset_accepts_stiefel_truth(small_dataset):
    assert isinstance(small_dataset.ground_truth, StiefelPoint)


def test_solver_stall_is_raisable():
    # The error type is part of the contract even if hard to trigger with
    # a well-conditioned quadratic.
    assert issubclass(SolverStallError, RuntimeError)
