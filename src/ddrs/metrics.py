"""
Centralized monitoring oracles.

These functions see all agents at once and exist only for analysis: the
consensus/stationarity pair, the splitting envelope (a merit value over the
splitting variable), the tracking-identity residual, neighborhood
diagnostics, and a log-log rate fit.  Nothing here is fed back to agents.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .fanout import map_agents
from .manifold import (
    RANK_TOL,
    _as_matrix,
    _singular_values,
    _tangent_dir,
    project_stiefel,
)
from .problems import exact_proxes


@dataclass(frozen=True)
class IterationRecord:
    """One monitoring row; ``dre`` through ``mu_sq_max`` may be absent."""

    k: int
    consensus_sq: float
    stationarity_sq: float
    dre: float = None
    dre_gap: float = None
    obj: float = None
    ds: float = None
    mu_sq_max: float = None
    wall_ns: int = 0


RECORD_FIELDS = tuple(f.name for f in fields(IterationRecord))


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
    The two stationarity measures over the current iterates, and the
    objective at their induced mean.

    Returns ``(consensus_sq, stationarity_sq, obj)``: the squared distance
    of the stacked iterates ``x_blocks`` from their replicated induced mean
    ``xbar`` (``induced_mean(x_blocks)``, which the caller computes once),
    the squared norm of the Riemannian gradient of the summed objective at
    that mean, and the summed objective value there.  Each agent's gradient
    at ``xbar`` comes from one product with its Gram matrix; the products
    run through ``map_agents`` and are summed in agent order, so a pooled
    record is bitwise a serial one.  The value is ``<xbar, g> / 2`` over
    that sum g, as each agent's loss is ``<x, egrad(x)> / 2``.
    """
    xbar = _as_matrix(xbar)
    diff = np.asarray(x_blocks, dtype=float) - xbar
    consensus_sq = float(np.vdot(diff, diff))
    g = sum(map_agents(lambda inst: inst.egrad(xbar), problem))
    rg = _tangent_dir(xbar, g)
    return consensus_sq, float(np.vdot(rg, rg)), float(np.vdot(xbar, g)) / 2.0


def dre_value(s_blocks, problem, alpha, x_blocks=None, gx_blocks=None):
    """
    Splitting envelope at the stacked splitting variable.

    With ``x_i = prox_i(alpha, s_i)``, ``y_i = x_i - alpha * egrad_i(x_i)``
    and ``ybar`` the replicated manifold projection of the mean of y, the
    value is ``sum_i f_i(x_i) + <egrad_i(x_i), ybar - x_i>
    + ||ybar - x_i||^2 / (2 alpha)``.  It is bounded below by the optimal
    consensus value and monitors progress; it needs global information and
    is never available to agents.  ``x_blocks`` are proxes of ``s_blocks``
    the caller holds: an exact step's ``x``, or an iDDRS step's, whose
    value lies within ``dre_gap`` of the exact one; without them the exact
    proxes are computed here (``exact_proxes``).  Each agent's gradient
    comes from one Gram product, or from its block of ``gx_blocks``, the
    products that certified ``x_blocks``, through ``map_agents``.  As
    ``f_i(x_i) = <x_i, egrad_i(x_i)> / 2``, the first two terms sum to
    ``<grads, gap + xs / 2>`` over the stacked gradients, ``gap = ybar -
    xs``.
    """
    if x_blocks is None:
        xs = exact_proxes(problem, alpha, s_blocks)
    else:
        xs = np.asarray(x_blocks, dtype=float)
    grads = np.stack(map_agents(lambda inst, x, gx: inst.egrad(x, gx),
                                problem, xs, gx_blocks))
    ybar = project_stiefel((xs - alpha * grads).mean(axis=0)).mat
    gap = ybar - xs
    return (float(np.vdot(grads, gap + xs / 2.0))
            + float(np.vdot(gap, gap)) / (2.0 * alpha))


def dre_gap(x_blocks, gx_blocks, mu_sq, problem, alpha):
    """
    Bound, rounding aside, on the distance of ``dre_value(s, problem,
    alpha, x_blocks, gx_blocks)`` from the envelope at the exact proxes of
    s, for proxes certified to squared residuals ``mu_sq``.

    With ``H_i = shift_i I - G_i``, spectrum in ``[0, L_i]``, the value is
    ``sum_i <x_i, (H_i - alpha H_i^2) x_i> / 2 + ||ybar - V||^2 / (2 alpha)``,
    ``V_i = (I - alpha H_i) x_i``, ``ybar`` the replicated manifold point
    nearest V.  As ``I + alpha H_i >= I``, ``||x_i - exact|| <= e_i =
    sqrt(mu_sq_i)``: the first term moves by at most ``a_i (||x_i|| e_i +
    e_i^2 / 2)``, ``a_i = max |lam - alpha lam^2|`` over ``[0, L_i]``, and
    V by at most ``delta = ||max(1, alpha L_i - 1) e_i||``, so the second
    by at most ``delta (2 ||ybar - V|| + delta) / (2 alpha)``.
    """
    xs = np.asarray(x_blocks, dtype=float)
    shift = np.array([inst.shift for inst in problem])[:, None, None]
    lip = np.array([inst.smoothness() for inst in problem])
    v = xs - alpha * (shift * xs - gx_blocks)
    dist = float(np.linalg.norm(project_stiefel(v.mean(axis=0)).mat - v))
    e_sq = np.asarray(mu_sq, dtype=float)
    # lam - alpha lam^2 peaks at 1 / (4 alpha), at lam = 1 / (2 alpha).
    a = np.maximum(abs(lip - alpha * lip ** 2),
                   np.where(2.0 * alpha * lip >= 1.0, 0.25 / alpha, 0.0))
    value_gap = float(np.sum(
        a * (np.linalg.norm(xs, axis=(1, 2)) * np.sqrt(e_sq) + e_sq / 2.0)))
    delta = float(np.linalg.norm(np.maximum(1.0, alpha * lip - 1.0)
                                 * np.sqrt(e_sq)))
    return value_gap + delta * (2.0 * dist + delta) / (2.0 * alpha)


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
    ``RANK_TOL``; the two means' singular values come from one call,
    which takes ``_polar``'s r-by-r Gram route for a well-conditioned mean
    and the SVD for any other.  The tube distance of a block is ``||sv -
    1||`` over the singular values ``stack.z_sv`` that the last step (or
    ``ddrs_init``) kept from its projection of ``mix(x) + d``; it is not
    recomputed, so it is stale on a stack whose ``x`` or ``d`` was edited
    afterwards.  ``W`` and ``t`` are unused.  Violations are named, never
    raised.
    """
    # One call over the two means gives both spreads.  A collapsed mean, which
    # has no unique projection, is the worst possible violation, not an error.
    means = np.stack([stack.x.mean(axis=0), stack.z.mean(axis=0)])
    x_dev, z_dev = (math.inf if sv[-1] <= RANK_TOL
                    else float(np.linalg.norm(sv - 1.0))
                    for sv in _singular_values(means))
    max_tube = float(np.linalg.norm(stack.z_sv - 1.0, axis=-1).max())
    bounds = (constants.delta1, 10.0 * constants.delta2, constants.gamma)
    violations = tuple(
        kind for kind, value, bound
        in zip(VIOLATION_KINDS, (x_dev, z_dev, max_tube), bounds, strict=True)
        if value > bound)
    return NeighborhoodReport(
        x_dev=x_dev, x_bound=bounds[0],
        z_dev=z_dev, z_bound=bounds[1],
        max_tube=max_tube, tube_bound=bounds[2],
        violations=violations,
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
