"""
Centralized monitoring oracles.

These functions see all agents at once and exist only for analysis: the
consensus/stationarity pair, the splitting envelope (a merit value over the
splitting variable), the tracking-identity residual, neighborhood
diagnostics, and a log-log rate fit.  Nothing here is fed back to agents.
"""

import math
from dataclasses import dataclass

import numpy as np

from .manifold import (
    RANK_TOL,
    _as_matrix,
    _tangent_dir,
    project_stiefel,
)

RECORD_FIELDS = (
    "k",
    "consensus_sq",
    "stationarity_sq",
    "dre",
    "obj",
    "ds",
    "mu_sq_max",
    "wall_ns",
)


@dataclass(frozen=True)
class IterationRecord:
    """One monitoring row; ``ds``/``mu_sq_max``/``dre`` may be absent."""

    k: int
    consensus_sq: float
    stationarity_sq: float
    dre: float = None
    obj: float = None
    ds: float = None
    mu_sq_max: float = None
    wall_ns: int = 0


def induced_mean(x_blocks):
    """
    Projection of the agents' Euclidean mean onto the manifold.

    This is the point at which a run is measured.  A RankDeficientError
    (collapsed mean) should be reported as divergence by the caller.
    """
    x_blocks = np.asarray(x_blocks, dtype=float)
    return project_stiefel(x_blocks.mean(axis=0))


def consensus_and_stationarity(x_blocks, xbar, problem):
    """
    The two stationarity measures over the current iterates.

    Returns ``(consensus_sq, stationarity_sq)``: the squared distance of the
    stacked iterates ``x_blocks`` from their replicated induced mean
    ``xbar`` (``induced_mean(x_blocks)``, which the caller computes once),
    and the squared norm of the Riemannian gradient of the summed objective
    at that mean.
    """
    xbar = _as_matrix(xbar)
    diff = np.asarray(x_blocks, dtype=float) - xbar
    consensus_sq = float(np.vdot(diff, diff))
    g = np.zeros_like(xbar)
    for inst in problem:
        g += inst.egrad(xbar)
    rg = _tangent_dir(xbar, g)
    return consensus_sq, float(np.vdot(rg, rg))


def objective_at_mean(xbar, problem):
    """Summed objective value at the induced mean ``xbar`` of the iterates."""
    return float(sum(inst.value(xbar) for inst in problem))


def dre_value(s_blocks, problem, alpha, x_blocks=None):
    """
    Splitting envelope at the stacked splitting variable.

    With ``x_i = prox_i(alpha, s_i)``, ``y_i = x_i - alpha * egrad_i(x_i)``
    and ``ybar`` the replicated manifold projection of the mean of y, the
    value is ``sum_i f_i(x_i) + <egrad_i(x_i), ybar - x_i>
    + ||ybar - x_i||^2 / (2 alpha)``.  It is bounded below by the optimal
    consensus value and monitors progress; it needs global information and
    is never available to agents.  A caller that already holds the exact
    proxes of ``s_blocks`` at ``alpha`` (an exact step's ``x``) passes them
    as ``x_blocks``; otherwise they are computed here.
    """
    if x_blocks is None:
        s_blocks = np.asarray(s_blocks, dtype=float)
        xs = np.stack([inst.prox(alpha, s)
                       for inst, s in zip(problem, s_blocks, strict=True)])
    else:
        xs = np.asarray(x_blocks, dtype=float)
    grads = np.stack([inst.egrad(x) for inst, x in zip(problem, xs, strict=True)])
    ybar = project_stiefel((xs - alpha * grads).mean(axis=0)).mat
    gap = ybar - xs
    values = sum(inst.value(x) for inst, x in zip(problem, xs, strict=True))
    return (values + float(np.vdot(grads, gap))
            + float(np.vdot(gap, gap)) / (2.0 * alpha))


def tracking_residual(stack):
    """Norm of ``mean(d) - (mean(x) - mean(s))``; zero up to rounding."""
    gap = stack.d.mean(axis=0) - (stack.x.mean(axis=0) - stack.s.mean(axis=0))
    return float(np.linalg.norm(gap))


@dataclass(frozen=True)
class NeighborhoodReport:
    """Measured neighborhood quantities against their certified bounds."""

    x_dev: float
    x_bound: float
    z_dev: float
    z_bound: float
    max_tube: float
    tube_bound: float
    violations: tuple

    @property
    def ok(self):
        return not self.violations


VIOLATION_KINDS = ("x-neighborhood", "z-neighborhood", "projection-tube")


def neighborhood_report(stack, constants, W, t):
    """
    Check the three certified-regime conditions on the current stack.

    Reports the mean-spread of x against ``delta1``, the mean-spread of z
    against ``10 * delta2``, and the largest tube distance of the mixed
    iterates plus tracker against ``gamma``.  A spread is the distance of
    the mean to its projection onto the manifold, ``||sv - 1||`` over the
    mean's singular values, and ``inf`` when the smallest is at or below
    ``RANK_TOL``.  The tube distance of a block is ``||sv - 1||`` over the
    singular values ``stack.z_sv`` that the last step (or ``ddrs_init``)
    kept from its projection of ``mix(x) + d``; it is not recomputed, so it
    is stale on a stack whose ``x`` or ``d`` was edited afterwards.  ``W``
    and ``t`` are unused.  Violations are named, never raised.
    """
    delta1 = constants.gamma / 4.0
    delta2 = delta1 / 12.0
    violations = []

    # One SVD of the two means gives both spreads.  A collapsed mean, which
    # has no unique projection, is the worst possible violation, not an error.
    means = np.stack([stack.x.mean(axis=0), stack.z.mean(axis=0)])
    x_dev, z_dev = (math.inf if sv[-1] <= RANK_TOL
                    else float(np.linalg.norm(sv - 1.0))
                    for sv in np.linalg.svd(means, compute_uv=False))
    if x_dev > delta1:
        violations.append("x-neighborhood")
    if z_dev > 10.0 * delta2:
        violations.append("z-neighborhood")
    max_tube = float(np.linalg.norm(stack.z_sv - 1.0, axis=-1).max())
    if max_tube > constants.gamma:
        violations.append("projection-tube")
    return NeighborhoodReport(
        x_dev=x_dev, x_bound=delta1,
        z_dev=z_dev, z_bound=10.0 * delta2,
        max_tube=max_tube, tube_bound=constants.gamma,
        violations=tuple(violations),
    )


def rate_fit(records, fieldname, k_min=1, k_max=None):
    """
    Least-squares slope of ``log(running min of field)`` against ``log k``.

    Parameters
    ----------
    records : sequence of IterationRecord
    fieldname : str
        Which record field to fit.
    k_min, k_max : int
        Window of iteration indices (inclusive); k = 0 is always excluded.

    Returns
    -------
    (slope, intercept)
    """
    pts = sorted(
        (rec.k, getattr(rec, fieldname))
        for rec in records
        if getattr(rec, fieldname) is not None
    )
    ks, vals = [], []
    best = math.inf
    for k, v in pts:
        best = min(best, v)
        if k >= max(k_min, 1) and (k_max is None or k <= k_max):
            ks.append(k)
            # Guard against an exact zero before taking logs.
            vals.append(max(best, 1e-300))
    if len(ks) < 5:
        raise ValueError("rate fit needs at least 5 points, got %d" % len(ks))
    slope, intercept = np.polyfit(np.log(ks), np.log(vals), 1)
    return float(slope), float(intercept)
