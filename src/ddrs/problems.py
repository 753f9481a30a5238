"""
Local objectives and data.

The distributed-PCA instance whose shifted quadratic loss admits a
closed-form prox, the synthetic spectrum-controlled data generator, and the
IDX image-file loader.
"""

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import lapack_lite

from .fanout import map_agents
from .manifold import StiefelPoint, _as_matrix


class SolverStallError(RuntimeError):
    """Inexact prox could not reach the requested residual tolerance."""


class NonFiniteInputError(ValueError):
    """A prox was asked to start from a point with NaN or inf entries."""


class BadMagicError(ValueError):
    """IDX file does not start with the image magic number."""


class TruncatedFileError(ValueError):
    """IDX file ends before the declared payload."""


class DimMismatchError(ValueError):
    """IDX dimensions are inconsistent with the payload or the request."""


# Lanczos steps after which a solve gives up and the dense spectrum is taken
# instead, and the steps between two convergence tests.  Solves took 16 steps
# on each synthetic d=784 Gram at xi = 0.8, 24, 48 and 96 at xi = 0.9, 0.99
# and 0.999 (m = 700), 8 on uniform [0, 1] data (400 x 784), and 48 and 80 on
# singular Gaussian Grams (96 x 192 and 400 x 784).  A solve that ran out of
# steps (d=784, rank 392, top eigenvalues within 1e-10 relative) took 65 ms,
# and with the Cholesky test and the dense spectrum after it the set-up of
# that Gram 119 ms, against 43 ms for the dense spectrum alone.  A test is a
# dense eigen-solve of the small tridiagonal matrix (15 x 15: 30 us, 50 x 50:
# 0.31 ms, 160 x 160: 2.5 ms, against 0.25 ms for a d=784 step's product);
# testing every step, every 4 and every 8 took 4.9/4.8/4.9 ms on a synthetic
# d=784 Gram, 8.6/3.3/2.6 on the 96 x 192 Gaussian one and 66/38/33 at xi =
# 0.999.
_LANCZOS_MAX_STEPS = 160
_LANCZOS_TEST_EVERY = 8

# The computed prox residual mu = x - s + alpha * (shift * x - G x) has a
# rounding floor: for the refined exact prox, ||mu||^2 / ||s||^2 measured
# 0.003 to 0.74 times (u alpha shift)^2, u the unit roundoff (d = 10, 36 and
# 784, alpha * shift 1 to 1e7).  Rounding x - s adds an error near u ||s|| that
# does not shrink with alpha * shift: at alpha * shift 0.0083 and 0.083,
# preset iDDRS runs stalled at 237 and 5.6 times (10 u alpha shift)^2
# (1 + ||s||^2).  A certified prox may stop at
# (10 u (1 + alpha shift))^2 (1 + ||s||^2).
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_ROUNDOFF_MARGIN = 10 * _UNIT_ROUNDOFF

# Largest share of the width d up to which the exact prox applies its k kept
# eigenpairs as a low-rank correction, and above which it applies the dense
# inverse.  Per call, d=784, r=5, 1 BLAS thread, medians in us, low-rank /
# dense: k=80 51/509, k=160 134/521, k=240 143/512, k=260 362/532 (the
# factor no longer fits the cache of the 2-vCPU VM), k=280 408/536, k=320
# 556/549, k=400 669/569.
LOW_RANK_MAX_SHARE = 1 / 3

# tau, the bound of the low-rank factor's certificate on ``||G - Q_k
# diag(theta_k) Q_k^T||_F / shift`` (``DPCAInstance._pivoted_factor``), and
# the rows of the panels its error is summed over.  Per call, d=784, 1 BLAS
# thread, medians of 5 per Gram: the 8 synthetic Grams of the d=784
# benchmark take 77-78 pivots and keep as many pairs at ||E||_F = 58-84 u
# shift, in 4.4-4.6 ms, against 24.0-25.5 ms for a randomized sketch with
# ceil(d/6) columns (82-83 pairs, 27-32 u shift; Halko, Martinsson & Tropp
# 2011) and 79.7-124.8 ms for eigh (85-88 pairs, 20-33 u shift).  On
# pixel-like data (400 pairs above u shift) the factor is refused after 261
# pivots in 10 ms, where the sketch filled after 15-18 ms; eigh takes
# 90-100.  At xi = 0.9 it keeps 168 pairs at 88
# u shift in 16 ms.  Exactly low-rank Grams with Gaussian or flat spectra
# certified up to rank 60 (40-114 u shift); from rank 100 they measured
# 184-270 u shift and fall back to eigh.  Summing the error over panels of
# 64 or 128 rows took 1.6-1.9 ms, of 262 rows 2.0-2.8 ms, and in one panel
# of all 784 rows 3.1-3.4 ms.
_LOW_RANK_TAU = 128 * _UNIT_ROUNDOFF
_PANEL_ROWS = 128


def _lanczos_top(gram):
    """
    Largest eigenvalue of a symmetric matrix by Lanczos, or None.

    Each step makes one product with the matrix and orthogonalizes the new
    vector twice against the whole basis, so the basis stays orthonormal and
    no spurious copies of converged Ritz values appear.  The start is a
    fixed Gaussian vector: a constant vector is orthogonal to the top
    eigenvector of, for example, ``[[1, -1], [-1, 1]]``.  Every
    ``_LANCZOS_TEST_EVERY`` steps, and at the last, the top Ritz value is
    returned if its residual ``beta * |last entry of its Ritz vector|`` is
    at most machine epsilon times itself, which bounds its distance to an
    eigenvalue by the same; a breakdown (``beta = 0``) meets that at once.
    None means ``min(d, _LANCZOS_MAX_STEPS)`` steps did not.
    """
    d = gram.shape[0]
    steps = min(d, _LANCZOS_MAX_STEPS)
    basis = np.empty((steps, d))
    diag = np.empty(steps)
    off = np.empty(steps)
    q = np.random.default_rng(0).standard_normal(d)
    q /= np.linalg.norm(q)
    for j in range(steps):
        basis[j] = q
        w = gram @ q
        diag[j] = q @ w
        done = basis[:j + 1]
        for _ in range(2):
            w -= (done @ w) @ done
        beta = float(np.linalg.norm(w))
        if ((j + 1) % _LANCZOS_TEST_EVERY == 0 or j + 1 == steps
                or beta == 0.0):
            tri = (np.diag(diag[:j + 1]) + np.diag(off[:j], 1)
                   + np.diag(off[:j], -1))
            ritz, vecs = np.linalg.eigh(tri)
            if beta * abs(vecs[-1, -1]) <= np.finfo(float).eps * abs(ritz[-1]):
                return float(ritz[-1])
        off[j] = beta
        q = w / beta
    return None


def _extreme_eigenvalues(gram):
    """
    ``(lambda_min, lambda_max)`` of a symmetric PSD matrix, each at least 0.

    A Gram whose Cholesky factorization fails is numerically singular:
    ``lambda_min`` is 0 and ``lambda_max`` comes from Lanczos on the matrix
    (``_lanczos_top``).  Every other Gram, and one whose Lanczos solve runs
    out of steps, takes both from the dense spectrum.  Lanczos for the
    smallest eigenvalue does not converge on a singular Gram, and on the
    inverse of a full-rank one it was slower than the dense spectrum (d=784
    Gaussian data: 56 against 45 ms).  The rule is the same at every width,
    though below about d = 192 the dense spectrum alone is often the faster
    on a singular Gram (singular Gaussian Grams at d=128: 1.84 against
    0.68 ms); such a set-up takes a few milliseconds either way.
    """
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        lam_max = _lanczos_top(gram)
        if lam_max is not None:
            return 0.0, max(lam_max, 0.0)
    evals = np.linalg.eigvalsh(gram)
    return float(max(evals[0], 0.0)), float(max(evals[-1], 0.0))


def _checked_input(alpha, s):
    """
    ``(s, ||s||^2)`` for a prox at step size alpha, s as a matrix.

    Raises ValueError unless alpha > 0, and NonFiniteInputError if s has a
    NaN or inf entry, before the solve, whose products would pass them on
    silently.  ||s||^2 is finite only if every entry is; a non-finite one
    may still come from finite entries that overflow it, so only then are
    the entries tested.
    """
    if not alpha > 0:
        raise ValueError("prox needs alpha > 0, got %r" % (alpha,))
    s = _as_matrix(s)
    s_sq = float(np.vdot(s, s))
    if not math.isfinite(s_sq) and not np.isfinite(s).all():
        raise NonFiniteInputError("prox input contains non-finite entries")
    return s, s_sq


class DPCAInstance:
    """
    Shifted PCA block loss ``-0.5 * tr(x^T (A^T A - ||A||_2^2 I) x)``.

    The spectral shift makes the quadratic form negative semidefinite, so
    the prox system ``I + alpha (||A||_2^2 I - A^T A)`` is symmetric positive
    definite with spectrum in ``[1, 1 + alpha L]``, and the prox is an exact
    linear solve.  The instance keeps the Gram matrix of its data block and
    the factor of the exact prox, built by the first exact prox
    (``exact_proxes`` says where); an instance whose proxes are all
    conjugate-gradient solves never builds it.  The factor keeps the
    ``prox_rank`` eigenpairs above ``u shift``, u the unit roundoff, from a
    pivoted Cholesky factor of the Gram where its certificate holds
    (``_pivoted_factor``), else from one eigendecomposition
    (``_eigh_factor``).  Up to ``LOW_RANK_MAX_SHARE`` of the width it is
    those eigenpairs, whatever the step size; above it, the dense inverse of
    the prox system for the step size in use, rebuilt when that changes (see
    ``_solve``).

    Either form solves the system of ``G - E`` in place of G, E the Gram
    minus the kept pairs' matrix, so an exact prox's residual ``||M x -
    s|| = alpha ||E x||``, M the prox system, is at most ``alpha ||E||_2
    ||x||``, plus rounding.  This bound is certified for a pivoted factor,
    ``||E||_F <= tau shift``.  For eigh it is measured: E is eigh's backward
    error plus the dropped eigenvalues, each at most ``u shift``, about 25 u
    shift in Frobenius norm at d = 784.

    The set-up computes only the two extremes of the Gram's spectrum, the
    shift and the smallest eigenvalue, which ``smoothness`` subtracts from
    it (``_extreme_eigenvalues``).

    It is one agent's loss as the engines use it: ``egrad(x, gx=None)``,
    the gradient from one Gram product or from one the caller holds,
    ``smoothness``, ``prox(alpha, s)``, the minimizer of ``f(y) + ||y -
    s||^2 / (2 alpha)``, and ``prox_inexact``, an approximate minimizer
    with its optimality residual ``mu = x - s + alpha * egrad(x)``,
    certified to a tolerance or to the residual's rounding floor
    (``residual_floor``).  The loss is a homogeneous quadratic, so ``f(x) =
    <x, egrad(x)> / 2``: a caller takes an agent's loss from a gradient it
    holds.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ValueError("data block must be 2-D, got ndim=%d" % A.ndim)
        self.gram = A.T @ A
        # ||A||_2^2 is the largest eigenvalue of the Gram matrix.
        self._lambda_min, self.shift = _extreme_eigenvalues(self.gram)
        # The exact prox's factor (alpha, rank, operand): alpha None and the
        # kept (eigenvalues, eigenvectors as rows) in the low-rank form, or
        # the step size and the inverse of the prox system in the dense form.
        self._factor = None

    @property
    def dim(self):
        return self.gram.shape[0]

    @property
    def prox_rank(self):
        """Eigenpairs the exact prox keeps, or None before the first exact prox."""
        return None if self._factor is None else self._factor[1]

    def _gram_apply(self, x):
        # G x as (x^T G)^T, which G's symmetry allows: OpenBLAS streams a
        # C-ordered d-by-d operand fastest from the right of a short-wide
        # product.  F-ordered operands such as G.T @ x are slower still.
        return (x.T @ self.gram).T

    def egrad(self, x, gx=None):
        """
        ``shift x - G x`` from one product with the Gram matrix, or from
        ``gx``, a Gram product of x the caller holds (``prox_inexact``
        returns the one that certified its x).
        """
        x = _as_matrix(x)
        return self.shift * x - (self._gram_apply(x) if gx is None else gx)

    def smoothness(self):
        # ||shift*I - A^T A||_2 for a PSD shift equals shift - lambda_min.
        return self.shift - self._lambda_min

    def _solve(self, alpha, rhs):
        """
        Solve the prox system at step size alpha for a finite rhs.

        The system is ``c I - alpha G``, ``c = 1 + alpha shift``, so with the
        Gram's eigenpairs ``G = Q diag(lam) Q^T`` its solution is ``x = s /
        c + Q diag(w) Q^T s``, ``w = alpha lam / (c (c - alpha lam))``.
        The factor keeps k pairs, the pivoted factor's where its
        certificate holds (``_pivoted_factor``), else eigh's
        (``_eigh_factor``), within the residual bound the class docstring
        states.  Only a first factor tries the pivoted one; a dense
        factor's rebuild after a step-size switch goes to eigh at once,
        since the deterministic pivoted factor was refused.  Where k is at
        most ``LOW_RANK_MAX_SHARE`` of the width, the prox applies the pairs
        as that correction, two passes over a k-by-d factor that does not
        depend on alpha, so a new step size costs O(k).  Otherwise it
        applies the dense inverse ``Q diag(1 / (c - alpha lam)) Q^T`` for
        the step size in use as ``(rhs^T M^-1)^T``, one streaming pass, and
        a new step size takes a new factor.  The system's
        spectrum lies in ``[1, 1 + alpha L]``, so either form is as well
        conditioned as the system.  A product with them passes NaN through
        silently, which is why each prox checks its input first
        (``_checked_input``).
        """
        # The slot is replaced by one assignment and each call solves with
        # the factor it read, so concurrent callers need no lock.
        factor = self._factor
        # A low-rank factor, alpha None, serves every step size.
        if factor is None or factor[0] not in (None, alpha):
            factor = ((factor is None and self._pivoted_factor())
                      or self._eigh_factor(alpha))
            self._factor = factor
        if factor[0] is not None:
            return (rhs.T @ factor[2]).T
        lam, qt = factor[2]
        c = 1.0 + alpha * self.shift
        y = rhs.T @ qt.T
        y *= alpha * lam / (c * (1.0 + alpha * (self.shift - lam)))
        x = y @ qt
        x += rhs.T / c
        return x.T

    def _eigh_factor(self, alpha):
        """
        The factor from one ``np.linalg.eigh`` of the Gram, keeping the
        pairs above ``u shift``; its E is measured, not certified (class
        docstring).  The dense inverse ``Q diag(1 / (c - alpha lam)) Q^T``
        is built in eigh's own memory: the eigenvectors are scaled in place
        by the square roots of the weights, and NumPy computes ``q @ q.T``
        of that array as one symmetric rank-k update (syrk), which fills one
        triangle and mirrors it, so the inverse is exactly symmetric.  The
        build holds two d-by-d arrays.
        """
        lam, q = np.linalg.eigh(self.gram)
        # A Gram's eigenvalues lie in [0, shift], but a factor's top one
        # exceeded the set-up's shift by rounding, up to 7.1e-16 relative on
        # the d = 10 and d = 784 preset Grams, and 1 + alpha (shift - lam)
        # turns negative once alpha shift passes about 1e15.  The pivoted
        # factor's pairs are clamped alike.
        np.minimum(lam, self.shift, out=lam)
        rank = int(np.count_nonzero(lam > _UNIT_ROUNDOFF * self.shift))
        if rank <= LOW_RANK_MAX_SHARE * self.dim:
            # eigh sorts ascending, so the kept eigenpairs are the last.
            kept = slice(self.dim - rank, None)
            return None, rank, (lam[kept], q[:, kept].T.copy())
        q *= np.sqrt(1.0 / (1.0 + alpha * (self.shift - lam)))
        return float(alpha), rank, q @ q.T

    def _pivoted_factor(self):
        """
        The low-rank factor from a pivoted Cholesky factorization of the
        Gram, or None.

        Each step pivots on the largest diagonal entry of the Schur
        complement left (Harbrecht, Peters & Schneider 2012), and the
        factorization stops once that entry is at most ``u shift``; a Gram
        that would need more than ``LOW_RANK_MAX_SHARE`` of the width in
        pivots returns None at the first pivot past it.  The k pivots' rows
        L, ``G ~ L^T L``, give one k-by-k ``eigh(L L^T) = V diag(theta)
        V^T``, and the factor keeps the pairs with ``theta > u shift`` as
        ``(theta, Q^T)``, ``Q^T = V^T L / sqrt(theta)``, theta then clamped
        at shift: step-size free, and read by ``_solve`` as eigh's is.  It
        is taken only if the certificate ``||E||_F <= tau shift`` holds
        (``_LOW_RANK_TAU``), ``E = G - S^T S`` as computed, ``S =
        diag(sqrt(theta)) Q^T``, which certifies the class docstring's
        residual bound.  S^T S and G are exactly symmetric, so ``||E||_F^2``
        is summed over panels of ``_PANEL_ROWS`` rows of E's upper half, a
        panel's part right of its diagonal block counted twice, and the
        build holds no d-by-d array.  Nothing is drawn at random, so builds
        of one Gram are bitwise equal on any thread.
        """
        d, cut = self.dim, _UNIT_ROUNDOFF * self.shift
        limit = int(LOW_RANK_MAX_SHARE * d)
        diag = self.gram.diagonal().copy()
        rows = np.empty((limit, d))
        k, p = 0, int(diag.argmax())
        while diag[p] > cut:
            if k == limit:
                return None
            rows[k] = row = ((self.gram[p] - rows[:k, p] @ rows[:k])
                             / math.sqrt(diag[p]))
            diag -= row * row
            diag[p] = 0.0
            k, p = k + 1, int(diag.argmax())
        theta, v = np.linalg.eigh(rows[:k] @ rows[:k].T)
        kept = theta > cut
        qt = (v[:, kept].T @ rows[:k]) / np.sqrt(theta[kept])[:, None]
        # Freed before the certificate's panels are formed.
        del rows
        theta = np.minimum(theta[kept], self.shift)
        s, err_sq = qt * np.sqrt(theta)[:, None], 0.0
        for lo in range(0, d, _PANEL_ROWS):
            panel = s[:, lo:lo + _PANEL_ROWS].T @ s[:, lo:]
            panel -= self.gram[lo:lo + _PANEL_ROWS, lo:]
            block = panel[:, :_PANEL_ROWS]
            err_sq += 2.0 * float(np.vdot(panel, panel)) - float(np.vdot(block, block))
        # Written so that a NaN error refuses the factor.
        if not math.sqrt(err_sq) <= _LOW_RANK_TAU * self.shift:
            return None
        return None, theta.size, (theta, qt)

    def apply_system(self, alpha, x, gx):
        """
        Prox system product ``(1 + alpha shift) x - alpha G x`` from
        ``gx = G x``.

        Elementwise in its arguments, so a stack of points and their Gram
        products gives the stack of system products.
        """
        return (1.0 + alpha * self.shift) * x - alpha * gx

    def prox(self, alpha, s):
        return self._solve(alpha, _checked_input(alpha, s)[0])

    def residual(self, alpha, s, x):
        """Prox optimality residual ``x - s + alpha * egrad(x)``, as ``M x - s``."""
        x = _as_matrix(x)
        return self.apply_system(alpha, x, self._gram_apply(x)) - _as_matrix(s)

    def residual_floor(self, alpha, s):
        """
        Rounding floor ``(10 u (1 + alpha shift))^2 (1 + ||s||^2)`` of a
        prox of s; inf where that overflows.
        """
        with np.errstate(over="ignore"):
            return self._floor(alpha, float(np.vdot(s, s)))

    def _floor(self, alpha, s_sq):
        # residual_floor from s_sq = ||s||^2.
        return (_ROUNDOFF_MARGIN * (1.0 + alpha * self.shift)) ** 2 * (1.0 + s_sq)

    def prox_inexact(self, alpha, s, eps, x0=None, gx0=None):
        """
        Conjugate-gradient prox solve certified to squared residual <= eps.

        Starts from ``x0``, or from s when it is None.  ``gx0`` stands in
        for the Gram product of ``x0``: that product, or the same linear
        combination of certified products that combined ``x0`` (an iDDRS
        step extrapolates both from an agent's last proxes).  It forms only
        the starting residual, so a wrong one costs iterations, never the
        certificate.  Without it the start makes one Gram product.

        Each CG iteration makes one Gram product, of the (d, 2r) block
        ``[x_j | p_j]`` of the iterate and the search direction: at d = 784
        a product streams G once, so 2r columns cost about what r do.  When
        the CG recurrence meets ``0.9 eps`` at ``x_J = x_{J-1} + step
        p_{J-1}``, the certificate is the residual computed from
        ``G x_{J-1} + step G p_{J-1}``, the last block's two products,
        never from the recurrence or ``gx0``.  Two guards, checked once at
        exit, keep it within rounding of a fresh product's.  The update
        guard ``step^2 ||p||^2 <= ||x_J||^2`` gives ``||x_{J-1}|| <= 2
        ||x_J||``, so the combination's rounding stays a small multiple of
        one product's; it is checked as ``step rs <= ||x_J||^2``, which
        implies it, since ``rs = step <p, M p>`` and ``M >= I``.  The
        margin guard is ``(||mu|| + sqrt(residual_floor))^2 <= eps``.

        Every other exit, and a combined certificate that trips a guard,
        takes a fresh product of x; a solve that takes no CG step from a
        start without ``gx0`` already holds it, so it makes one product in
        all.  That certificate holds if it meets eps or, when eps lies
        below what rounding allows, ``residual_floor(alpha, s)``.  On a
        miss, CG restarts once from the recomputed residual, within the
        same iteration budget, and a second miss raises SolverStallError.
        With eps > 0 the exact prox's factor is never built, and a step
        size with ``10 u (1 + alpha shift) >= 1``, whose floor would
        certify x = 0, raises SolverStallError before any arithmetic;
        ``eps == 0`` takes ``prox``'s exact solve and ignores the start.
        Its input is checked as ``prox``'s is (``_checked_input``).

        Returns
        -------
        (x, mu, gx) : the iterate, its optimality residual ``mu =
        apply_system(alpha, x, gx) - s``, and ``gx``, the Gram product of x
        it was certified from: ``_gram_apply(x)`` bitwise where the solve
        took no CG step or a guard tripped, else the combined product.  Its
        one caller in the library, an iDDRS step, keeps all three for its
        records' envelope and gap (``metrics.dre_gap``).
        """
        s, s_sq = _checked_input(alpha, s)
        if eps < 0:
            raise ValueError("tolerance must be >= 0, got %r" % (eps,))
        if eps == 0.0:
            x = self._solve(alpha, s)
            gx = self._gram_apply(x)
            return x, self.apply_system(alpha, x, gx) - s, gx
        if _ROUNDOFF_MARGIN * (1.0 + alpha * self.shift) >= 1.0:
            # The floor would certify x = 0, whose residual is ||s||^2, and
            # larger step sizes overflow the system's products.
            raise SolverStallError(
                "step size %.3e puts the rounding floor of an inexact prox "
                "above ||s||^2: it needs alpha * shift < %.3e"
                % (alpha, 1.0 / _ROUNDOFF_MARGIN - 1.0))

        cols = s.shape[1]
        # CG runs on transposes: the rows of xpt are x^T and p^T, so xpt.T
        # is the block [x | p], and x, p and the two halves of the block's
        # product stay contiguous and update in place.
        xpt = np.empty((2 * cols, self.dim))
        xt, pt = xpt[:cols], xpt[cols:]
        xt[...] = (s if x0 is None else _as_matrix(x0)).T
        x = xt.T
        # Whether gx is the Gram product of the current x.
        fresh = gx0 is None
        gx = self._gram_apply(x) if fresh else _as_matrix(gx0)
        r = s - self.apply_system(alpha, x, gx)
        # Stop slightly inside the target so the recomputed residual holds.
        target = 0.9 * eps
        budget = max(10 * self.dim, 200)
        floor = self._floor(alpha, s_sq)
        for _ in range(2):
            rs = float(np.vdot(r, r))
            # The last iteration's block product and step, once CG converged.
            last = None
            if rs > target:
                pt[...] = rt = r.T
                while budget:
                    budget -= 1
                    gxpt = self._gram_apply(xpt.T).T
                    Mpt = self.apply_system(alpha, pt, gxpt[cols:])
                    denom = float(np.vdot(pt, Mpt))
                    if denom <= 0.0:
                        break
                    step = rs / denom
                    xt += step * pt
                    rt = rt - step * Mpt
                    fresh = False
                    rs_new = float(np.vdot(rt, rt))
                    if rs_new <= target:
                        last = gxpt, step, rs
                        break
                    pt *= rs_new / rs
                    pt += rt
                    rs = rs_new
            if last is not None:
                gxpt, step, rs = last
                # The update guard: step^2 ||p||^2 <= step rs, as M >= I.
                if step * rs <= float(np.vdot(xt, xt)):
                    gx = (gxpt[:cols] + step * gxpt[cols:]).T
                    mu = self.apply_system(alpha, x, gx) - s
                    mu_sq = float(np.vdot(mu, mu))
                    if (math.sqrt(mu_sq) + math.sqrt(floor)) ** 2 <= eps:
                        return x, mu, gx
            if not fresh:
                gx = self._gram_apply(x)
                fresh = True
            mu = self.apply_system(alpha, x, gx) - s
            mu_sq = float(np.vdot(mu, mu))
            if mu_sq <= eps or mu_sq <= floor:
                return x, mu, gx
            r = -mu
        raise SolverStallError("inexact prox stalled at ||mu||^2 = %.3e > %.3e "
                               "and its rounding floor %.3e" % (mu_sq, eps, floor))


def exact_proxes(problem, alpha, s_blocks):
    """
    The agents' exact proxes ``inst.prox(alpha, s_i)``, stacked.

    This is the one place that decides where they and their factors run.
    An agent without a factor first tries its pivoted factor on the calling
    thread (``DPCAInstance._pivoted_factor``): the 8 first proxes of the
    d = 784 benchmark took 38-54 ms so, against 95-122 ms with randomized
    sketches of the Grams on the pool, and building one factor at a time
    keeps the run's memory peak at its set-up's.  An agent whose attempt is refused
    builds eigh's factor on the pool, inside its first prox, without a
    second attempt: on pixel-like data at d = 784 the 8 first proxes took
    549-707 ms pooled against 862-1074 ms serially.  Once every agent holds its
    low-rank factor the proxes run on the calling thread: at d = 784 such a
    prox takes about 50 us, and 8 of them took 0.54 ms serially against
    0.94 ms on the pool.  Otherwise they run through ``map_agents``: 8
    dense proxes at d = 784 took 4.30 ms serially against 2.62 ms pooled
    (1 BLAS thread).  Each prox is the same computation either way, so the
    stack is bitwise the same.
    """
    for inst in problem:
        if inst._factor is None:
            inst._factor = inst._pivoted_factor()

    def prox(inst, s):
        if inst._factor is None:
            inst._factor = inst._eigh_factor(alpha)
        return inst.prox(alpha, s)

    # A low-rank factor has no step size (``_solve``).
    if all(inst._factor is not None and inst._factor[0] is None
           for inst in problem):
        return np.stack([prox(inst, s)
                         for inst, s in zip(problem, s_blocks, strict=True)])
    return np.stack(map_agents(prox, problem, s_blocks))


@dataclass
class Dataset:
    """Per-agent data blocks plus the known optimum when one exists."""

    blocks: list
    ground_truth: StiefelPoint = None

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("dataset needs at least one block")
        d = self.blocks[0].shape[1]
        if any(b.shape[1] != d for b in self.blocks):
            raise ValueError("all blocks must share the feature dimension")

    @property
    def n(self):
        return len(self.blocks)

    def instances(self):
        return [DPCAInstance(b) for b in self.blocks]


# Relative singular value below which a direction is not formed: the square
# of the double-precision epsilon, some fifty bits below the last stored bit
# of an entry at the scale of the leading direction.
_SV_CUTOFF = 2.0 ** -104


def _representable_rank(d, r, xi):
    """
    Number of directions ``gen_synthetic`` forms: every j <= d with
    ``xi**(j-1) >= 2**-104``, and at least r.
    """
    return max(r, int(np.count_nonzero(xi ** np.arange(d) >= _SV_CUTOFF)))


def _orthonormal_factor(at):
    """
    ``np.linalg.qr(at.T)[0]``, computed in the memory of ``at``.

    ``at`` is a C-ordered (k, m) array with k <= m, which is the m-by-k
    matrix ``at.T`` in column-major layout.  LAPACK's ``dgeqrf`` and then
    ``dorgqr`` overwrite it with the reduced factor Q, and the returned
    (m, k) array is a column-major view of it.  These are the routines
    ``np.linalg.qr`` calls, each with the workspace its query returns, so
    Q is bitwise the same; but no copy of the matrix is made.
    """
    k, m = at.shape
    tau = np.empty(k)
    for routine, args in ((lapack_lite.dgeqrf, (m, k)),
                          (lapack_lite.dorgqr, (m, k, k))):
        query = np.empty(1)
        routine(*args, at, m, tau, query, -1, 0)
        work = np.empty(max(1, k, int(query[0])))
        info = routine(*args, at, m, tau, work, work.size, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError("%s failed with info=%d"
                                        % (routine.__name__, info))
    return at.T


def gen_synthetic(n, m_per, d, r, xi, seed):
    """
    Spectrum-controlled synthetic PCA data.

    The data are a tall matrix with orthonormal factors and singular values
    ``xi, xi^2, ..., xi^d``, its rows shuffled and split into n equal agent
    blocks; the first r right singular vectors are recorded as the known
    optimum.  Directions whose singular value lies below ``xi * 2**-104``
    are not formed: each factor is the reduced QR of the first k columns of
    its Gaussian draw (``_representable_rank``), which in Householder QR
    gives the same k columns as the full factorization, and each block is
    built directly from its rows of the scaled left factor.  The left draw
    is taken m_per rows at a time, the same stream as one draw, and its
    first k columns go straight into the buffer that ``_orthonormal_factor``
    turns into the left factor in place, so neither the full draw nor a
    copy of the matrix being factored is ever held.  The blocks are formed
    one at a time (``_synthetic_blocks``), which ``build_run`` relies on to
    hold at most one.  The streams are drawn in the same order as when the
    full data matrix was formed and split.  The stored blocks and optimum
    are bitwise unchanged at the preset, golden and MNIST-width shapes
    checked in ``tests/test_problems.py``; at other shapes a block may
    differ by a few ulps of the largest entry, since a product per block
    can round some rows differently from one product over all rows.

    Parameters
    ----------
    n, m_per : int
        Number of agents and rows per agent.
    d, r : int
        Feature dimension and target rank.
    xi : float in (0, 1)
        Spectral decay; singular value j equals ``xi**j``.
    seed : int
        Seeds the orthonormal factors and the row shuffle.
    """
    truth, blocks = _synthetic_blocks(n, m_per, d, r, xi, seed)
    return Dataset(list(blocks), truth)


def _synthetic_blocks(n, m_per, d, r, xi, seed):
    """
    ``gen_synthetic``'s optimum and an iterator that forms its blocks one
    agent at a time.  The scaled left factor is cut into the agents' row
    pieces, and its buffer goes with this call's frame; each piece is
    dropped as its block is formed, so the blocks are the same products of
    the same rows as when all were formed at once.
    """
    if not (0.0 < xi < 1.0):
        raise ValueError("xi must lie in (0, 1), got %r" % (xi,))
    total = n * m_per
    if total < d:
        raise ValueError("need n*m_per >= d, got %d < %d" % (total, d))
    if not (1 <= r <= d):
        raise ValueError("need 1 <= r <= d")
    k = _representable_rank(d, r, xi)
    rng = np.random.default_rng(seed)
    ut = np.empty((k, total))
    for i in range(n):
        ut[:, i * m_per:(i + 1) * m_per] = rng.standard_normal((m_per, d))[:, :k].T
    U = _orthonormal_factor(ut)
    V = np.linalg.qr(rng.standard_normal((d, d))[:, :k])[0]
    U *= xi ** np.arange(1, k + 1)
    perm = rng.permutation(total)
    pieces = [U[perm[i * m_per:(i + 1) * m_per]] for i in range(n)]
    return (StiefelPoint(V[:, :r].copy()),
            (pieces.pop(0) @ V.T for _ in range(n)))


_IDX_IMAGE_MAGIC = 0x00000803


def load_idx(path):
    """
    Decode an IDX image file into a (count, rows*cols) ``uint8`` matrix.

    Layout: big-endian magic 0x00000803, then three big-endian int32 sizes
    (count, rows, cols), then unsigned bytes row-major.  Each image becomes
    one flattened row; pixel values stay in 0..255.  The matrix is a
    read-only view of the file's bytes, so loading makes no float copy.
    """
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise TruncatedFileError("file shorter than the 4-byte magic")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != _IDX_IMAGE_MAGIC:
        raise BadMagicError(
            "expected image magic 0x%08x, got 0x%08x" % (_IDX_IMAGE_MAGIC, magic)
        )
    if len(data) < 16:
        raise TruncatedFileError("file shorter than the 16-byte header")
    count, rows, cols = struct.unpack(">iii", data[4:16])
    if count <= 0 or rows <= 0 or cols <= 0:
        raise DimMismatchError(
            "non-positive dimensions (%d, %d, %d)" % (count, rows, cols)
        )
    need = count * rows * cols
    have = len(data) - 16
    if have < need:
        raise TruncatedFileError("payload has %d bytes, header declares %d" % (have, need))
    if have > need:
        raise DimMismatchError("%d trailing bytes after declared payload" % (have - need))
    arr = np.frombuffer(data, dtype=np.uint8, count=need, offset=16)
    return arr.reshape(count, rows * cols)


def normalize_and_split(matrix, n, seed):
    """
    Scale pixel rows into [0, 1], shuffle them, split into n equal blocks.

    Rows beyond the largest multiple of n are dropped.  Each block is
    scaled from its own rows into a new float array, so the input, which
    may be ``load_idx``'s ``uint8`` matrix, is never copied whole.
    """
    return Dataset(list(_pixel_blocks(matrix, n, seed)))


def _pixel_blocks(matrix, n, seed):
    """An iterator that forms ``normalize_and_split``'s blocks one at a time."""
    X = np.asarray(matrix)
    m = X.shape[0] // n
    if m == 0:
        raise DimMismatchError("cannot split %d rows into %d blocks" % (X.shape[0], n))
    perm = np.random.default_rng(seed).permutation(X.shape[0])
    return (X[perm[i * m:(i + 1) * m]] / 255.0 for i in range(n))
