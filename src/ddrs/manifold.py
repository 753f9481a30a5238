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
class TangentVector:
    """A direction attached to a base point, lying in its tangent space."""

    base: StiefelPoint
    dir: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.dir, dtype=float)
        if v.shape != self.base.shape:
            raise ValueError(
                "direction shape %s does not match base %s"
                % (v.shape, self.base.shape)
            )
        x = self.base.mat
        skew = np.linalg.norm(x.T @ v + v.T @ x)
        if skew > ORTHO_TOL:
            raise ValueError(
                "not tangent: ||X^T V + V^T X|| = %.3e > %.1e" % (skew, ORTHO_TOL)
            )
        object.__setattr__(self, "dir", v)

    @property
    def norm(self):
        return float(np.linalg.norm(self.dir))


@dataclass(frozen=True)
class ManifoldConstants:
    """Proximal-smoothness tube radius and diameter for St(d, r)."""

    gamma: float
    zeta: float


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


def _polar(M):
    """
    Polar factors of a d-by-r block or of an (n, d, r) stack of blocks.

    One (batched) thin SVD ``M = U diag(sv) V^T`` gives ``(Q, sv)``: ``Q =
    U V^T`` has the shape of ``M``, and ``sv`` holds each block's singular
    values in descending order, shape (r,) or (n, r).  Q is the nearest
    point on St(d, r) to its block, at Frobenius distance ``||sv - 1||``.

    Raises RankDeficientError when the smallest singular value of any block
    is at or below ``RANK_TOL``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-2] < M.shape[-1]:
        raise ValueError(
            "expected a tall d x r matrix or an (n, d, r) stack, got shape %s"
            % (M.shape,)
        )
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    smallest = sv[..., -1].min()
    if smallest <= RANK_TOL:
        raise RankDeficientError(
            "smallest singular value %.3e <= %.1e: projection not unique"
            % (smallest, RANK_TOL)
        )
    return U @ Vt, sv


def project_stiefel(M):
    """
    Nearest point on St(d, r) in Frobenius norm.

    Computed as the polar factor ``U V^T`` of the thin SVD ``M = U S V^T``.

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
    TangentVector
    """
    if not isinstance(x, StiefelPoint):
        x = StiefelPoint(x)
    v = np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise ValueError("shape mismatch: %s vs %s" % (v.shape, x.shape))
    return TangentVector(x, _tangent_dir(x.mat, v))


def tube_distance(M):
    """
    Frobenius distance from M to the manifold.

    Compare against ``gamma`` to decide membership of the closed tube in
    which the projection is single-valued and 2-Lipschitz.
    """
    M = _as_matrix(M)
    return float(np.linalg.norm(M - project_stiefel(M).mat))


def subspace_distance(x, xstar):
    """
    Rotation-invariant distance ``min_Q ||x Q - xstar||`` over orthogonal Q.

    Computed from the singular values of ``x^T xstar`` (orthogonal
    Procrustes): the squared distance is ``2 r - 2 sum_i s_i``.  The value
    lies in ``[0, 2 sqrt(r)]`` and vanishes iff the two frames span the same
    column space.
    """
    a = _as_matrix(x)
    b = _as_matrix(xstar)
    if a.shape != b.shape:
        raise ValueError("shape mismatch: %s vs %s" % (a.shape, b.shape))
    r = a.shape[1]
    sv = np.linalg.svd(a.T @ b, compute_uv=False)
    # Clip tiny negatives produced by rounding when the frames coincide.
    return float(np.sqrt(max(2.0 * r - 2.0 * float(np.sum(sv)), 0.0)))


def random_stiefel(d, r, rng):
    """Random point on St(d, r): polar factor of a Gaussian matrix."""
    return project_stiefel(rng.standard_normal((d, r)))
