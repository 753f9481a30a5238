"""
Stiefel manifold geometry.

Projection onto the manifold (polar factor), tangent-space projection
(which gives Riemannian gradients), the tube distance used to check
proximal-smoothness neighborhoods, and the rotation-invariant subspace
distance used to compare orthonormal bases.
"""

import numpy as np
from dataclasses import dataclass

# Orthonormality is enforced to this tolerance on construction; re-projection
# after every consensus step keeps iterates well inside it.
ORTHO_TOL = 1e-10

# Below this smallest singular value the nearest-point projection is not
# unique (the input sits outside the proximal-smoothness tube).
RANK_TOL = 1e-12


class RankDeficientError(ValueError):
    """Nearest-point projection onto the manifold is not well defined."""


def _as_matrix(x):
    """Accept a StiefelPoint or a plain array and return a float ndarray."""
    if isinstance(x, StiefelPoint):
        return x.mat
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class StiefelPoint:
    """A d-by-r matrix with orthonormal columns (d >= r >= 1)."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=float)
        if m.ndim != 2:
            raise ValueError("expected a 2-D matrix, got ndim=%d" % m.ndim)
        d, r = m.shape
        if r < 1 or d < r:
            raise ValueError("need d >= r >= 1, got shape %s" % (m.shape,))
        err = np.linalg.norm(m.T @ m - np.eye(r))
        if err > ORTHO_TOL:
            raise ValueError(
                "columns not orthonormal: ||X^T X - I|| = %.3e > %.1e"
                % (err, ORTHO_TOL)
            )
        object.__setattr__(self, "mat", m)

    @property
    def shape(self):
        return self.mat.shape


@dataclass(frozen=True)
class ManifoldConstants:
    """
    Proximal-smoothness tube radius and diameter for St(d, r).

    The radius fixes the certified-regime radii ``delta1 = gamma / 4`` and
    ``delta2 = delta1 / 12``.
    """

    gamma: float
    zeta: float

    @property
    def delta1(self):
        return self.gamma / 4.0

    @property
    def delta2(self):
        return self.delta1 / 12.0


def manifold_constants(d, r):
    """
    Geometric constants of St(d, r).

    The tube radius ``gamma`` is 1/2 (the Stiefel manifold is 1-proximally
    smooth) and the diameter ``zeta`` equals ``2*sqrt(r)``, attained by
    antipodal pairs ``(x, -x)``.
    """
    if not (1 <= r <= d):
        raise ValueError("need d >= r >= 1, got (%s, %s)" % (d, r))
    return ManifoldConstants(gamma=0.5, zeta=float(2.0 * np.sqrt(r)))


# The Gram route below takes a block whose Gram eigenvalues span at most
# this ratio (kappa^2 <= 100).  Squaring the condition number loses about
# u kappa^2 relative: at d = 784 and kappa^2 = 100, 200 random blocks kept
# Q within 1.2e-14 and sv within 2.5e-14 of the SVD's, and a wider span
# would lose digits that the SVD keeps.
_GRAM_CUT = 1e-2


def _gram_eigh(M):
    """
    Eigenpairs ``(lam, V, ok)`` of the r-by-r Grams ``M^T M`` of a block or
    an (n, d, r) stack: ``lam`` ascending, and ``ok``, shape () or (n,),
    marks the blocks the Gram route serves.

    A block is served when its Gram is finite and ``lam_min >=
    max(_GRAM_CUT lam_max, RANK_TOL)``.  An ill-conditioned block, a
    non-finite or NaN one, one whose Gram overflows, and one whose smallest
    singular value is below ``sqrt(RANK_TOL)`` are left to the SVD, which
    alone decides rank deficiency; their ``lam`` is set to 1, so the
    arithmetic on them stays finite and quiet.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        G = M.swapaxes(-1, -2) @ M
    finite = np.isfinite(G).all(axis=(-2, -1))
    G[~finite] = np.eye(G.shape[-1])
    lam, V = np.linalg.eigh(G)
    ok = finite & (lam[..., 0] >= np.maximum(_GRAM_CUT * lam[..., -1], RANK_TOL))
    lam[~ok] = 1.0
    return lam, V, ok


def _singular_values(M):
    """
    Singular values of a block or a stack, descending, by ``_polar``'s route.
    """
    lam, _, ok = _gram_eigh(M)
    sv = np.sqrt(lam[..., ::-1])
    if not ok.all():
        sv[~ok] = np.linalg.svd(M[~ok], compute_uv=False)
    return sv


def _polar(M):
    """
    Polar factors of a d-by-r block or of an (n, d, r) stack of blocks.

    Returns ``(Q, sv)``: ``Q = U V^T`` of the thin SVD ``M = U diag(sv)
    V^T``, with the shape of ``M``, and ``sv`` each block's singular values
    in descending order, shape (r,) or (n, r).  Q is the nearest point on
    St(d, r) to its block, at Frobenius distance ``||sv - 1||``.  For a
    well-conditioned block (``_gram_eigh``), Q is ``M V diag(lam^-1/2)
    V^T`` from the eigenpairs of its r-by-r Gram and ``sv = sqrt(lam)``;
    the other blocks take one batched thin SVD.  Each block's result is
    the same, bit for bit, in any stack.

    Raises RankDeficientError when the smallest singular value of any block
    is at or below ``RANK_TOL``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-2] < M.shape[-1]:
        raise ValueError(
            "expected a tall d x r matrix or an (n, d, r) stack, got shape %s"
            % (M.shape,)
        )
    lam, V, ok = _gram_eigh(M)
    # Only the blocks left to the SVD, whose Q is replaced, can overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        Q = M @ ((V / np.sqrt(lam)[..., None, :]) @ V.swapaxes(-1, -2))
    sv = np.sqrt(lam[..., ::-1])
    if not ok.all():
        U, sv_svd, Vt = np.linalg.svd(M[~ok], full_matrices=False)
        Q[~ok], sv[~ok] = U @ Vt, sv_svd
    # The Gram route serves no block with a singular value below 1e-6.
    smallest = sv[..., -1].min()
    if smallest <= RANK_TOL:
        raise RankDeficientError(
            "smallest singular value %.3e <= %.1e: projection not unique"
            % (smallest, RANK_TOL)
        )
    return Q, sv


def project_stiefel(M):
    """
    Nearest point on St(d, r) in Frobenius norm.

    Computed as the polar factor ``U V^T`` of the thin SVD ``M = U S V^T``
    (``_polar``).

    Parameters
    ----------
    M : ndarray or StiefelPoint
        A d-by-r matrix with smallest singular value above ``RANK_TOL``.

    Returns
    -------
    StiefelPoint

    Raises
    ------
    RankDeficientError
        If the smallest singular value of ``M`` is at or below ``RANK_TOL``.
    """
    return StiefelPoint(_polar(_as_matrix(M))[0])


def _tangent_dir(x, v):
    # v - x sym(x^T v) is the orthogonal projector onto the tangent space;
    # x and v are d-by-r blocks or (n, d, r) stacks.
    xtv = x.swapaxes(-1, -2) @ v
    return v - x @ (0.5 * (xtv + xtv.swapaxes(-1, -2)))


def tangent_project(x, v):
    """
    Orthogonally project an ambient direction onto the tangent space at x.

    The projection of a Euclidean gradient is the Riemannian gradient.

    Parameters
    ----------
    x : StiefelPoint
    v : ndarray
        Ambient d-by-r direction.

    Returns
    -------
    ndarray
        The d-by-r tangent direction.
    """
    if not isinstance(x, StiefelPoint):
        x = StiefelPoint(x)
    v = np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise ValueError("shape mismatch: %s vs %s" % (v.shape, x.shape))
    return _tangent_dir(x.mat, v)


def tube_distance(M):
    """
    Frobenius distance from a d-by-r M to the manifold, ``||sv - 1||`` over
    the singular values of M.

    Compare against ``gamma`` to decide membership of the closed tube in
    which the projection is single-valued and 2-Lipschitz.  Raises
    RankDeficientError where ``project_stiefel`` would.
    """
    return float(np.linalg.norm(_polar(_as_matrix(M))[1] - 1.0))


def subspace_distance(x, xstar):
    """
    Rotation-invariant distance ``min_Q ||x Q - xstar||`` over orthogonal Q.

    The orthogonal Procrustes residual ``||x (u v^T) - xstar||``, with
    ``u s v^T`` the SVD of ``x^T xstar``; unlike ``sqrt(2 r - 2 sum(s))``
    it does not cancel at small distances.  The value lies in
    ``[0, 2 sqrt(r)]``, vanishes iff the two frames span the same column
    space, and is exactly 0 for equal frames.
    """
    a = _as_matrix(x)
    b = _as_matrix(xstar)
    if a.shape != b.shape:
        raise ValueError("shape mismatch: %s vs %s" % (a.shape, b.shape))
    if np.array_equal(a, b):
        return 0.0
    u, _, vt = np.linalg.svd(a.T @ b)
    return float(np.linalg.norm(a @ (u @ vt) - b))


def random_stiefel(d, r, rng):
    """Random point on St(d, r): polar factor of a Gaussian matrix."""
    return project_stiefel(rng.standard_normal((d, r)))
