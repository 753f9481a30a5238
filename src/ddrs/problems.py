"""
Local objectives and data.

The per-agent objective interface (value, Euclidean gradient, exact and
inexact proximal steps), the distributed-PCA instance whose shifted
quadratic loss admits a closed-form prox, the synthetic spectrum-controlled
data generator, and the IDX image-file loader.
"""

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotri

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


class LocalObjective(ABC):
    """
    What one agent's loss must provide.

    ``prox(alpha, s)`` returns the minimizer of
    ``f(y) + ||y - s||^2 / (2 alpha)``; ``prox_inexact`` returns an
    approximate minimizer together with the certified optimality residual
    ``mu = x - s + alpha * egrad(x)``.
    """

    @abstractmethod
    def value(self, x):
        """Objective value at a d-by-r matrix."""

    @abstractmethod
    def egrad(self, x):
        """Euclidean gradient at a d-by-r matrix."""

    @abstractmethod
    def prox(self, alpha, s):
        """Exact proximal step from s with parameter alpha > 0."""

    @abstractmethod
    def prox_inexact(self, alpha, s, eps):
        """Approximate prox: returns (x, mu) with ||mu||^2 <= eps."""

    @abstractmethod
    def smoothness(self):
        """A Lipschitz constant of the Euclidean gradient."""


class DPCAInstance(LocalObjective):
    """
    Shifted PCA block loss ``-0.5 * tr(x^T (A^T A - ||A||_2^2 I) x)``.

    The spectral shift makes the quadratic form negative semidefinite, so
    the prox system ``I + alpha (||A||_2^2 I - A^T A)`` is symmetric positive
    definite with spectrum in ``[1, 1 + alpha L]``, and the prox is an exact
    linear solve.  The instance keeps the Gram matrix of its data block and
    the inverse of the prox system for the step size in use, rebuilt when
    the step size changes.  A product with the inverse streams the d-by-d
    operand once, where a Cholesky solve reads its factor twice.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ValueError("data block must be 2-D, got ndim=%d" % A.ndim)
        self.gram = A.T @ A
        evals = np.linalg.eigvalsh(self.gram)
        # ||A||_2^2; also the largest eigenvalue of the Gram matrix.
        self.shift = float(max(evals[-1], 0.0))
        self._lambda_min = float(max(evals[0], 0.0))
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

    def value(self, x):
        x = _as_matrix(x)
        gx = self._gram_apply(x)
        return -0.5 * (float(np.vdot(x, gx)) - self.shift * float(np.vdot(x, x)))

    def egrad(self, x):
        x = _as_matrix(x)
        return self.shift * x - self._gram_apply(x)

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

    def prox_inexact(self, alpha, s, eps, max_iters=None):
        """
        Conjugate-gradient prox solve stopped at squared residual <= eps.

        Warm-started from s.  Each CG iteration makes one product with the
        Gram matrix.  ``eps == 0`` takes the exact path, ``prox``.  When CG
        cannot certify the tolerance (eps near the floating point floor),
        ``prox`` plus iterative refinement with the kept inverse is used; if
        even that misses eps, SolverStallError is raised.  A non-finite s
        reaches ``prox`` either way and raises NonFiniteInputError.

        Returns
        -------
        (x, mu) : the iterate and its recomputed optimality residual.
        """
        if not alpha > 0:
            raise ValueError("prox needs alpha > 0, got %r" % (alpha,))
        if eps < 0:
            raise ValueError("tolerance must be >= 0, got %r" % (eps,))
        s = _as_matrix(s)
        if eps == 0.0:
            x = self.prox(alpha, s)
            return x, self.residual(alpha, s, x)

        if max_iters is None:
            max_iters = max(10 * self.dim, 200)
        x = s.copy()
        r = s - self._apply_system(alpha, x)
        rs = float(np.vdot(r, r))
        # Stop slightly inside the target so the recomputed residual holds.
        target = 0.9 * eps
        if rs > target:
            p = r.copy()
            for _ in range(max_iters):
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
        if float(np.vdot(mu, mu)) <= eps:
            return x, mu
        # CG hit the floating-point floor; fall back to the exact solve
        # with a few refinement passes.
        x = self.prox(alpha, s)
        for _ in range(4):
            mu = self.residual(alpha, s, x)
            if float(np.vdot(mu, mu)) <= eps:
                return x, mu
            x = x - self._solve(alpha, mu)
        mu = self.residual(alpha, s, x)
        if float(np.vdot(mu, mu)) <= eps:
            return x, mu
        raise SolverStallError(
            "inexact prox stalled at ||mu||^2 = %.3e > %.3e"
            % (float(np.vdot(mu, mu)), eps)
        )


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
    built directly from its rows of the scaled left factor.  The streams are
    drawn in the same order as when the full data matrix was formed and
    split.  The stored blocks and optimum are bitwise unchanged at the
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
    # The copy lets the full draw go before the factorization starts.
    U = np.linalg.qr(rng.standard_normal((total, d))[:, :k].copy())[0]
    V = np.linalg.qr(rng.standard_normal((d, d))[:, :k])[0]
    U *= xi ** np.arange(1, k + 1)
    perm = rng.permutation(total)
    blocks = [U[perm[i * m_per:(i + 1) * m_per]] @ V.T for i in range(n)]
    meta = dict(n=n, m_per=m_per, d=d, r=r, xi=xi, seed=seed, source="synthetic")
    return Dataset(blocks, StiefelPoint(V[:, :r].copy()), meta)


_IDX_IMAGE_MAGIC = 0x00000803


def load_idx(path):
    """
    Decode an IDX image file into a (count, rows*cols) float matrix.

    Layout: big-endian magic 0x00000803, then three big-endian int32 sizes
    (count, rows, cols), then unsigned bytes row-major.  Each image becomes
    one flattened row; pixel values stay in 0..255.
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
    return arr.reshape(count, rows * cols).astype(float)


def normalize_and_split(matrix, n, seed):
    """
    Scale pixel rows into [0, 1], shuffle them, split into n equal blocks.

    Rows beyond the largest multiple of n are dropped.
    """
    X = np.asarray(matrix, dtype=float) / 255.0
    m = X.shape[0] // n
    if m == 0:
        raise DimMismatchError("cannot split %d rows into %d blocks" % (X.shape[0], n))
    rng = np.random.default_rng(seed)
    X = X[rng.permutation(X.shape[0])]
    blocks = [X[i * m:(i + 1) * m].copy() for i in range(n)]
    meta = dict(n=n, m_per=m, d=X.shape[1], seed=seed, source="idx")
    return Dataset(blocks, None, meta)
