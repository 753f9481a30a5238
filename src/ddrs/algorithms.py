"""
Optimization engines.

The decentralized Douglas-Rachford iteration with gradient tracking (exact
prox: ``ddrs_step``; certified inexact prox: ``iddrs_step``), a minimal
decentralized Riemannian gradient-tracking baseline, the geometric
inexactness schedule, and the theory-driven parameter advisor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .manifold import (
    ManifoldConstants,
    RankDeficientError,
    StiefelPoint,
    _as_matrix,
    _polar,
    _tangent_dir,
    project_stiefel,
)
from .fanout import map_agents
from .network import mix
from .problems import exact_proxes


class ConfigurationWarning(UserWarning):
    """
    A run is outside the certified parameter regime; it still proceeds.

    The engines never raise it: ``harness.start_run`` judges a configured
    run's start and tolerance schedule before the first step.
    """


@dataclass
class AgentStack:
    """
    Full per-agent splitting state: arrays of shape (n, d, r).

    ``s`` is the splitting variable, ``x`` the prox output, ``z`` the
    mixed-and-projected consensus estimate (always on the manifold), and
    ``d`` the tracker whose block mean equals ``mean(x) - mean(s)``
    exactly; ``y = 2x - s`` is a read-only property, computed from ``x``
    and ``s`` on each read, so it cannot disagree with them.  ``mu_sq``
    holds the realized squared prox residuals of the last inexact step,
    when there was one.  ``z_sv``, shape (n, r), holds the singular values
    of each block of ``mix(x) + d`` that produced ``z``, or of ``mix(x)``
    at the start (inf where that projection was not unique); it is recorded
    when the stack is built and not updated if ``x`` or ``d`` is edited
    later.

    An inexact step also keeps each agent's prox history, from which the
    next step starts its solves (``iddrs_step``): ``gx``, shape (n, d, r),
    the Gram product of each block of ``x`` that certified it (a fresh
    product, or the last CG iteration's two products combined, within
    rounding of one; ``prox_inexact``), and ``dx``
    and ``dgx``, shape (n, m, d, r) with m = 1 or 2, the differences of
    the agent's last m + 1 certified proxes and of their products, the
    newest first; a column of ``dx`` that is exactly 0 has a ``dgx`` column
    of exactly 0, as ``G 0`` is.  Like ``z_sv`` they are stale if ``x`` is edited later.
    ``ddrs_init`` and ``ddrs_step`` leave all three None, and ``dx`` and
    ``dgx`` stay None until two steps in a row have certified their
    products.
    """

    s: np.ndarray
    x: np.ndarray
    z: np.ndarray
    d: np.ndarray
    k: int = 0
    mu_sq: np.ndarray = None
    z_sv: np.ndarray = None
    gx: np.ndarray = None
    dx: np.ndarray = None
    dgx: np.ndarray = None

    @property
    def n(self):
        return self.s.shape[0]

    @property
    def y(self):
        return 2.0 * self.x - self.s


@dataclass(frozen=True)
class SolverParams:
    """Step size, communication rounds per iteration, inexactness schedule."""

    alpha: float
    t: int = 1
    eps0: float = 1e-6
    rho: float = 0.9

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("step size must be finite and > 0, got %r" % (self.alpha,))
        if self.t < 1:
            raise ValueError("communication rounds must be >= 1, got %d" % self.t)
        if not 0 <= self.eps0 < math.inf:
            raise ValueError("eps0 must be finite and >= 0, got %r" % (self.eps0,))
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1), got %r" % (self.rho,))


def epsilon_schedule(eps0, rho, k):
    """Geometric inexactness schedule ``eps0 * rho**k`` (summable)."""
    return eps0 * rho ** k


def _stack_blocks(x0, n_expected):
    blocks = [StiefelPoint(_as_matrix(b)).mat for b in x0]
    if len(blocks) != n_expected:
        raise ValueError(
            "got %d initial blocks for %d agents" % (len(blocks), n_expected)
        )
    return np.stack(blocks)


def ddrs_init(problem, W, params, x0):
    """
    Build the initial stack from on-manifold per-agent points.

    Sets ``s = z = x`` and a zero tracker.  ``z_sv`` holds the singular
    values of the mixed start ``mix(x)``, inf where its projection is not
    unique, so that a start whose mix collapses reports an infinite tube
    (``neighborhood_report``).  The start is not judged here: a caller
    checks it against the certified neighborhood with
    ``neighborhood_report``, as ``harness.start_run`` does.
    """
    x = _stack_blocks(x0, W.n)
    if len(problem) != W.n:
        raise ValueError(
            "got %d local objectives for %d agents" % (len(problem), W.n)
        )
    try:
        z_sv = _polar(mix(W, params.t, x))[1]
    except RankDeficientError:
        z_sv = np.full((x.shape[0], x.shape[2]), math.inf)
    return AgentStack(s=x.copy(), x=x.copy(), z=x.copy(),
                      d=np.zeros_like(x), k=0, z_sv=z_sv)


def _advance(stack, W, params, prox_blocks):
    """
    Shared splitting step; ``prox_blocks(s_new) -> (x_new, mu_sq, gx_new)``,
    with ``gx_new`` the certified Gram products of ``x_new`` or None.
    """
    s_new = stack.s + stack.z - stack.x
    x_new, mu_sq, gx_new = prox_blocks(s_new)
    d_new = mix(W, params.t, stack.d) + (x_new - s_new) - (stack.x - stack.s)
    z_new, z_sv = _polar(mix(W, params.t, x_new) + d_new)
    dx = dgx = None
    if gx_new is not None and stack.gx is not None:
        dx = (x_new - stack.x)[:, None]
        # G 0 = 0: a column the solve returned unchanged has no product
        # difference, where the two certified products' rounding would
        # leave one for extrapolated_start to amplify.
        dgx = np.where((dx == 0.0).all(axis=2, keepdims=True), 0.0,
                       (gx_new - stack.gx)[:, None])
        if stack.dx is not None:
            dx = np.concatenate([dx, stack.dx[:, :1]], axis=1)
            dgx = np.concatenate([dgx, stack.dgx[:, :1]], axis=1)
    return AgentStack(s=s_new, x=x_new, z=z_new, d=d_new,
                      k=stack.k + 1, mu_sq=mu_sq, z_sv=z_sv,
                      gx=gx_new, dx=dx, dgx=dgx)


def ddrs_step(stack, problem, W, params):
    """
    One synchronous exact-prox splitting iteration.

    Per agent: ``s += z - x``; ``x = prox(alpha, s)``; the tracker is
    gossip-mixed over t rounds and corrected by the local increment of
    ``x - s``; finally ``z`` projects the mixed iterates plus tracker back
    onto the manifold.  A RankDeficientError from that projection means
    the iterates left the certified tube (step size or t misconfigured).
    The proxes come from ``exact_proxes``, which decides where they run.
    """
    return _advance(stack, W, params, lambda s_new: (
        exact_proxes(problem, params.alpha, s_new), None, None))


# Below this share of ||M d1||^2 ||M d2||^2 the determinant of the start's
# normal equations counts as zero, and the start extrapolates along the
# newest difference alone: the two directions are then within 1e-5 rad of
# parallel.  The determinant's entries are each rounded to about u
# relative, so above the cut it keeps at least 5 significant digits.  Cuts
# from 0 to 1e-6 gave the same Gram product counts on the preset and
# d=784 iDDRS runs, and 1e-3 about 4% more.
_COLLINEAR = 1e-10


def extrapolated_start(inst, alpha, s, x, gx, dx, dgx):
    """
    Start ``(x0, gx0)`` of an agent's next prox solve, from its history.

    ``x0 = x + dx^T theta`` moves the agent's last certified prox ``x``
    along the differences ``dx`` (shape (m, d, r)) of its last m + 1
    certified proxes, and ``gx0 = gx + dgx^T theta`` moves its product
    ``gx`` with them.  theta minimizes the start's residual
    ``||s - M x - (M dx)^T theta||``, where M is the prox system, so it
    solves the m-by-m normal equations in closed form; every system
    product is formed from stored Gram products (``apply_system``), so the
    start makes none.  Where the two differences are near parallel
    (``_COLLINEAR``) it uses the newest alone, and where that one's system
    product is 0, theta = 0.  theta = 0 is a feasible choice, so the start
    is never worse than ``x``, up to rounding.  Without history (``dx``
    None), or for a non-finite s, the start is ``(x, gx)``.
    """
    if dx is None:
        return x, gx
    m = len(dx)
    md = inst.apply_system(alpha, dx, dgx).reshape(m, -1)
    b = (md @ (s - inst.apply_system(alpha, x, gx)).ravel()).tolist()
    if not all(map(math.isfinite, b)):
        # A non-finite s, which the solve rejects before any arithmetic.
        return x, gx
    a = (md @ md.T).tolist()
    if m == 2:
        det = a[0][0] * a[1][1] - a[0][1] ** 2
        if det > _COLLINEAR * a[0][0] * a[1][1]:
            t0 = (a[1][1] * b[0] - a[0][1] * b[1]) / det
            t1 = (a[0][0] * b[1] - a[0][1] * b[0]) / det
            return (x + t0 * dx[0] + t1 * dx[1],
                    gx + t0 * dgx[0] + t1 * dgx[1])
    if a[0][0] > 0.0:
        t0 = b[0] / a[0][0]
        return x + t0 * dx[0], gx + t0 * dgx[0]
    return x, gx


def iddrs_step(stack, problem, W, params, k):
    """
    One splitting iteration with certified-inexact prox.

    The prox tolerance is ``epsilon_schedule(params.eps0, params.rho, k)``;
    each agent's realized squared residual is recorded in ``mu_sq``, and
    one above it marks a tolerance below the residual's rounding floor,
    which ``prox_inexact`` certifies instead.  The paper's certificate
    ``||mu_i||^2 <= eps_k`` leaves the start of each agent's
    conjugate-gradient solve free.  The prox is linear in s and
    consecutive right-hand sides are close, so each solve starts from the
    agent's own last proxes, extrapolated to the new s
    (``extrapolated_start``), with their certified Gram products carried
    in the stack (``gx``, ``dx``, ``dgx``): the start makes no Gram
    product.  The first step, which has no products, starts at
    ``stack.x`` (there ``x = s``), and the next at the last prox alone.
    The solves run through ``map_agents``, so at MNIST width they overlap
    on the per-agent pool; a start uses only its agent's history.  A
    record's envelope and gap read the step's ``x``, ``gx`` and ``mu_sq``.
    ``k`` only sets the tolerance: whether ``eps0`` lies below ``delta2``
    is judged by ``harness.start_run``, not here.
    """
    eps_k = epsilon_schedule(params.eps0, params.rho, k)

    def prox_one(inst, s, *history):
        x0, gx0 = extrapolated_start(inst, params.alpha, s, *history)
        x, mu, gx = inst.prox_inexact(params.alpha, s, eps_k, x0=x0, gx0=gx0)
        # The same vdot prox_inexact certified against eps_k.
        return x, float(np.vdot(mu, mu)), gx

    def prox_blocks(s_new):
        solved = map_agents(prox_one, problem, s_new, stack.x, stack.gx,
                            stack.dx, stack.dgx)
        return (np.stack([x for x, _, _ in solved]),
                np.asarray([mu_sq for _, mu_sq, _ in solved]),
                np.stack([gx for _, _, gx in solved]))

    return _advance(stack, W, params, prox_blocks)


@dataclass
class BaselineStack:
    """State of the gradient-tracking baseline: iterates, tracker, gradients."""

    x: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    k: int = 0

    @property
    def n(self):
        return self.x.shape[0]


def baseline_gt_init(problem, W, params, x0):
    """Tracker starts at the local gradients so its mean tracks theirs."""
    x = _stack_blocks(x0, W.n)
    grad = np.stack([inst.egrad(xi) for inst, xi in zip(problem, x, strict=True)])
    return BaselineStack(x=x, v=grad.copy(), grad=grad, k=0)


def baseline_gt_step(stack, problem, W, params):
    """
    One step of a deliberately minimal Riemannian gradient-tracking scheme.

    ``x_i`` moves along the tangent projection of the tracker from the mixed
    iterate and is projected back; the tracker is then mixed and refreshed
    with the local gradient increment.  The block mean of the tracker equals
    the mean gradient at every iteration.  This is a plumbing baseline, not
    a faithful reimplementation of any published method.
    """
    x_new = _polar(mix(W, params.t, stack.x)
                   - params.alpha * _tangent_dir(stack.x, stack.v))[0]
    grad_new = np.stack([inst.egrad(xi)
                         for inst, xi in zip(problem, x_new, strict=True)])
    v_new = mix(W, params.t, stack.v) + grad_new - stack.grad
    return BaselineStack(x=x_new, v=v_new, grad=grad_new, k=stack.k + 1)


@dataclass(frozen=True)
class ParameterAdvice:
    """
    Certified-regime constants for a given problem and network.

    ``t_clauses`` spells out each lower bound whose maximum is ``t_min``.
    ``c2``, ``c4_shape`` and ``c5_shape`` need initial-state norms, so they
    are None unless a stack was provided.  ``notes`` records where the
    implemented formulas deviate from their stated form.
    """

    delta1: float
    delta2: float
    delta3: float
    alpha_max: float
    t_min: int
    t_clauses: tuple
    c1: float
    c2: float
    c3: float
    c4_shape: float
    c5_shape: float
    notes: tuple = ()


def _ceil_log(sigma2, arg):
    """Smallest integer t with sigma2**t <= arg, for 0 < arg < 1."""
    if sigma2 <= 0.0:
        return 1
    return max(1, math.ceil(math.log(arg) / math.log(sigma2)))


def advise_parameters(L, gamma, zeta, sigma2, n, grad0_norm,
                      initial_state=None, eps0=1e-6, rho=0.9):
    """
    Evaluate the certified step-size bound, round count, and rate constants.

    Parameters
    ----------
    L : float
        Gradient Lipschitz constant of the worst local objective.
    gamma, zeta : float
        Tube radius and diameter of the manifold.
    sigma2 : float
        Second-largest singular value of the mixing matrix, in [0, 1).
    n : int
        Number of agents.
    grad0_norm : float
        Norm of the stacked Euclidean gradient at zero.
    initial_state : AgentStack, optional
        Supplies the initial-state norms entering ``c2``/``c4_shape``.
    eps0, rho : float
        Inexactness schedule; its sum ``eps0 / (1 - rho)`` enters the
        inexact-rate constants.  An exact run passes ``eps0 = 0``.

    Notes
    -----
    Two stated bounds are implemented in corrected form and flagged in
    ``notes``: the round-count clause is used with the argument orientation
    that makes the logarithm positive, and the run-dependent sum of
    tolerances is replaced by its limit, which is noted only when it is
    positive.
    """
    if not (0.0 <= sigma2 < 1.0):
        raise ValueError("sigma2 must lie in [0, 1), got %r" % (sigma2,))
    if not L > 0:
        raise ValueError("L must be positive, got %r" % (L,))
    radii = ManifoldConstants(gamma, zeta)
    delta1, delta2 = radii.delta1, radii.delta2
    delta3 = 2.0 * delta2 + zeta
    notes = []

    sqrt_n = math.sqrt(n)
    clause_track = _ceil_log(sigma2, 1.0 / (4.0 * sqrt_n))
    # Stated as log of delta3/(delta2 sqrt(n)) > 1, which would be negative;
    # the contraction actually needed is sigma2^t <= delta2/(sqrt(n) delta3).
    clause_tube = _ceil_log(sigma2, delta2 / (sqrt_n * delta3))
    notes.append("round-count clause uses delta2/(sqrt(n)*delta3) as the "
                 "log argument (stated form is its reciprocal)")
    clause_rate = _ceil_log(sigma2, 1.0 / (12.0 * sqrt_n))
    # Inexact-rate clause: doubling the log is the same as squaring the
    # argument, already oriented below one.
    clause_inexact = _ceil_log(sigma2, 1.0 / n ** 2)
    t_clauses = (clause_track, clause_tube, clause_rate, clause_inexact)
    t_min = max(t_clauses)

    sig_t = sigma2 ** t_min
    c1 = 32.0 / (1.0 - 4.0 * sig_t) ** 2 * (4.0 * sig_t + 4.0 / (1.0 - sig_t) ** 2)
    alpha_curv = 1.0 / (2.0 * (1.0 + 2.0 * L + c1 * L ** 2))
    alpha_tube = delta2 / (3.0 * grad0_norm + 2.0 * L * (zeta + delta2))
    alpha_max = min(alpha_curv, alpha_tube)

    big_d = eps0 / (1.0 - rho)
    if big_d > 0:
        notes.append("c3/c4_shape use the schedule limit %.6g in place of the "
                     "run-dependent partial sums" % big_d)
    c3 = (128.0 / (1.0 - 4.0 * sig_t) ** 2
          * (sig_t ** 2 * alpha_max ** 2 * L ** 2
             + alpha_max ** 2 * L ** 2 / (1.0 - sig_t) ** 2)
          * big_d)

    c2 = c4_shape = c5_shape = None
    if initial_state is not None:
        st = initial_state
        zy_sq = _consensus_gap_sq(st)
        dmean = st.d - (st.x.mean(axis=0) - st.s.mean(axis=0))
        dd_sq = float(np.vdot(dmean, dmean))
        c2 = (4.0 / (1.0 - 16.0 * sig_t ** 2) * zy_sq
              + 128.0 / ((1.0 - 4.0 * sig_t) ** 2 * (1.0 - sig_t ** 2)) * dd_sq)
        c4_shape = ((512.0 * n + 128.0 * n * (1.0 - sig_t) ** 2)
                    / ((1.0 - 4.0 * sig_t) ** 2 * (1.0 - sig_t) ** 2) * big_d
                    + 128.0 / ((1.0 - 4.0 * sig_t) ** 2 * (1.0 - sig_t ** 2)) * dd_sq
                    + 4.0 / (1.0 - 16.0 * sig_t ** 2) * zy_sq)
        c5_shape = c4_shape + 2.0 * sqrt_n * big_d

    return ParameterAdvice(
        delta1=delta1, delta2=delta2, delta3=delta3,
        alpha_max=alpha_max, t_min=t_min, t_clauses=t_clauses,
        c1=c1, c2=c2, c3=c3, c4_shape=c4_shape, c5_shape=c5_shape,
        notes=tuple(notes),
    )


def _consensus_gap_sq(stack):
    """Squared distance from z to the replicated projected mean of y."""
    yhat = stack.y.mean(axis=0)
    ybar = project_stiefel(yhat).mat
    diff = stack.z - ybar
    return float(np.vdot(diff, diff))
