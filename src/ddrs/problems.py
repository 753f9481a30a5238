"""
Local objectives and data.

The distributed-PCA instance whose shifted quadratic loss admits a
closed-form prox, the synthetic spectrum-controlled data generator, and the
IDX image-file loader.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.linalg import lapack_lite

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
# 784, alpha * shift 1 to 1e7), so a fixed 1e-24 falls below it from
# alpha * shift near 1e4.  A certified prox may stop at 100 times that,
# (10 u alpha shift)^2 (1 + ||s||^2).
_ROUNDOFF_MARGIN = 10 * np.finfo(float).eps / 2


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


class DPCAInstance:
    """
    Shifted PCA block loss ``-0.5 * tr(x^T (A^T A - ||A||_2^2 I) x)``.

    The spectral shift makes the quadratic form negative semidefinite, so
    the prox system ``I + alpha (||A||_2^2 I - A^T A)`` is symmetric positive
    definite with spectrum in ``[1, 1 + alpha L]``, and the prox is an exact
    linear solve.  The instance keeps the Gram matrix of its data block and
    the inverse of the prox system for the step size in use, built by the
    first exact prox and rebuilt when the step size changes; an instance
    whose proxes are all conjugate-gradient solves never builds it.  A
    product with the inverse streams the d-by-d operand once, where a
    Cholesky solve reads its factor twice.

    Of the Gram's spectrum only the two extremes are kept: the largest
    eigenvalue, the shift, and the smallest, which ``smoothness`` subtracts
    from it (``_extreme_eigenvalues``).  A Gram whose Cholesky
    factorization fails is numerically singular, so its smallest
    eigenvalue is taken as 0 and its largest comes from a Lanczos solve:
    the dense spectrum returns a rounding-level smallest value there (about
    -2e-17 for the d=784 synthetic Grams, which have rank at most 324),
    clamped to 0.  Every other Gram takes both from the dense spectrum.

    It is one agent's loss as the engines use it: ``value`` and ``egrad``,
    or both from one Gram product (``value_and_egrad``), ``smoothness``,
    ``prox(alpha, s)``, the minimizer of ``f(y) + ||y - s||^2 / (2 alpha)``,
    and ``prox_inexact``, an approximate minimizer with its optimality
    residual ``mu = x - s + alpha * egrad(x)``, certified to a tolerance or
    to the residual's rounding floor (``residual_floor``).
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ValueError("data block must be 2-D, got ndim=%d" % A.ndim)
        self.gram = A.T @ A
        # ||A||_2^2 is the largest eigenvalue of the Gram matrix.
        self._lambda_min, self.shift = _extreme_eigenvalues(self.gram)
        # (alpha, inverse of the prox system) for the last step size solved with.
        self._inverse = None

    @property
    def dim(self):
        return self.gram.shape[0]

    def _gram_apply(self, x):
        # G x as (x^T G)^T, which G's symmetry allows: OpenBLAS streams a
        # C-ordered d-by-d operand fastest from the right of a short-wide
        # product.  F-ordered operands such as G.T @ x are slower still.
        return (x.T @ self.gram).T

    def _value(self, x, gx):
        return -0.5 * (float(np.vdot(x, gx)) - self.shift * float(np.vdot(x, x)))

    def value(self, x):
        x = _as_matrix(x)
        return self._value(x, self._gram_apply(x))

    def egrad(self, x):
        x = _as_matrix(x)
        return self.shift * x - self._gram_apply(x)

    def value_and_egrad(self, x):
        """``(value(x), egrad(x))`` from one product with the Gram matrix."""
        x = _as_matrix(x)
        gx = self._gram_apply(x)
        return self._value(x, gx), self.shift * x - gx

    def smoothness(self):
        # ||shift*I - A^T A||_2 for a PSD shift equals shift - lambda_min.
        return self.shift - self._lambda_min

    def _solve(self, alpha, rhs):
        """
        Solve the prox system at step size alpha for a finite rhs.

        Applies the kept inverse as ``(rhs^T M^-1)^T``, one streaming pass
        over it.  The system's spectrum lies in ``[1, 1 + alpha L]``, so the
        inverse is as well conditioned as the system.  A product with it
        passes NaN through silently, which is why ``prox`` checks its input.
        """
        # The slot is replaced by one assignment and each call solves with
        # the pair it read, so concurrent callers need no lock.
        slot = self._inverse
        if slot is None or slot[0] != alpha:
            # Imported here, so that a run whose proxes are all
            # conjugate-gradient solves never loads scipy.linalg.
            from scipy.linalg import cho_factor
            from scipy.linalg.lapack import dpotri

            eye = np.eye(self.dim)
            factor, _ = cho_factor(eye + alpha * (self.shift * eye - self.gram))
            inv, info = dpotri(factor)
            if info != 0:
                raise np.linalg.LinAlgError("dpotri failed with info=%d" % info)
            # dpotri fills the upper triangle; mirroring it makes the inverse
            # exactly symmetric.
            inv = np.triu(inv) + np.triu(inv, 1).T
            slot = (float(alpha), inv)
            self._inverse = slot
        return (rhs.T @ slot[1]).T

    def _apply_system(self, alpha, x):
        return x + alpha * (self.shift * x - self._gram_apply(x))

    def prox(self, alpha, s):
        if not alpha > 0:
            raise ValueError("prox needs alpha > 0, got %r" % (alpha,))
        s = _as_matrix(s)
        if not np.all(np.isfinite(s)):
            raise NonFiniteInputError("prox input contains non-finite entries")
        return self._solve(alpha, s)

    def residual(self, alpha, s, x):
        """Prox optimality residual ``x - s + alpha * egrad(x)``."""
        return x - _as_matrix(s) + alpha * self.egrad(x)

    def residual_floor(self, alpha, s):
        """Squared residual ``(10 u alpha shift)^2 (1 + ||s||^2)`` of a prox of s."""
        return ((_ROUNDOFF_MARGIN * alpha * self.shift) ** 2
                * (1.0 + float(np.vdot(s, s))))

    def prox_inexact(self, alpha, s, eps, x0=None):
        """
        Conjugate-gradient prox solve certified to squared residual <= eps.

        Warm-started from ``x0``, or from s when it is None: an iDDRS
        step starts each agent's solve from that agent's previous x, and
        its record's envelope starts from the step's x.  Each CG
        iteration makes one product with the Gram matrix.  The recomputed
        residual is accepted if it meets eps or, when eps lies below what
        rounding allows, ``residual_floor(alpha, s)``; otherwise
        SolverStallError is raised.  With eps > 0 the inverse of the prox
        system is never built; ``eps == 0`` takes the exact path, ``prox``.
        A non-finite s raises NonFiniteInputError before any arithmetic, as
        in ``prox``.

        Returns
        -------
        (x, mu) : the iterate and its recomputed optimality residual.
        """
        if not alpha > 0:
            raise ValueError("prox needs alpha > 0, got %r" % (alpha,))
        if eps < 0:
            raise ValueError("tolerance must be >= 0, got %r" % (eps,))
        s = _as_matrix(s)
        if not np.all(np.isfinite(s)):
            raise NonFiniteInputError("prox input contains non-finite entries")
        if eps == 0.0:
            x = self.prox(alpha, s)
            return x, self.residual(alpha, s, x)

        x = (s if x0 is None else _as_matrix(x0)).copy()
        r = s - self._apply_system(alpha, x)
        rs = float(np.vdot(r, r))
        # Stop slightly inside the target so the recomputed residual holds.
        target = 0.9 * eps
        if rs > target:
            p = r.copy()
            for _ in range(max(10 * self.dim, 200)):
                Mp = self._apply_system(alpha, p)
                denom = float(np.vdot(p, Mp))
                if denom <= 0.0:
                    break
                step = rs / denom
                x = x + step * p
                r = r - step * Mp
                rs_new = float(np.vdot(r, r))
                if rs_new <= target:
                    rs = rs_new
                    break
                p = r + (rs_new / rs) * p
                rs = rs_new
        mu = self.residual(alpha, s, x)
        mu_sq = float(np.vdot(mu, mu))
        if mu_sq <= eps:
            return x, mu
        floor = self.residual_floor(alpha, s)
        if mu_sq <= floor:
            return x, mu
        raise SolverStallError("inexact prox stalled at ||mu||^2 = %.3e > %.3e "
                               "and its rounding floor %.3e" % (mu_sq, eps, floor))


@dataclass
class Dataset:
    """Per-agent data blocks plus the known optimum when one exists."""

    blocks: list
    ground_truth: StiefelPoint = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("dataset needs at least one block")
        d = self.blocks[0].shape[1]
        if any(b.shape[1] != d for b in self.blocks):
            raise ValueError("all blocks must share the feature dimension")

    @property
    def n(self):
        return len(self.blocks)

    @property
    def dim(self):
        return self.blocks[0].shape[1]

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
    copy of the factored matrix is ever held.  The streams are drawn in the
    same order as when the full data matrix was formed and split.  The
    stored blocks and optimum are bitwise unchanged at the
    preset, golden and MNIST-width shapes checked in
    ``tests/test_problems.py``; at other shapes a block may differ by a few
    ulps of the largest entry, since a product per block can round some
    rows differently from one product over all rows.

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
    blocks = [U[perm[i * m_per:(i + 1) * m_per]] @ V.T for i in range(n)]
    meta = dict(n=n, m_per=m_per, d=d, r=r, xi=xi, seed=seed, source="synthetic")
    return Dataset(blocks, StiefelPoint(V[:, :r].copy()), meta)


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
    X = np.asarray(matrix)
    m = X.shape[0] // n
    if m == 0:
        raise DimMismatchError("cannot split %d rows into %d blocks" % (X.shape[0], n))
    perm = np.random.default_rng(seed).permutation(X.shape[0])
    blocks = [X[perm[i * m:(i + 1) * m]] / 255.0 for i in range(n)]
    meta = dict(n=n, m_per=m, d=X.shape[1], seed=seed, source="idx")
    return Dataset(blocks, None, meta)
