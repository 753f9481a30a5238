"""Shared test oracles: independent implementations that tests check against."""

import struct

import numpy as np

from ddrs.algorithms import (
    AgentStack,
    BaselineStack,
    epsilon_schedule,
    extrapolated_start,
)
from ddrs.manifold import StiefelPoint, project_stiefel
from ddrs.problems import Dataset


def random_stiefel_mat(rng, d, r):
    return project_stiefel(rng.standard_normal((d, r))).mat


def svd_polar(M):
    """Polar factor ``U V^T`` of the thin SVD ``M = U S V^T`` of one block."""
    U, _, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ Vt


def random_orthogonal(rng, r):
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return q


def centralized_drs(problem, s0, x0, z0, alpha, iters):
    """Direct single-agent splitting recursion; trajectory of (s, x, z)."""
    s, x, z = s0.copy(), x0.copy(), z0.copy()
    traj = []
    for _ in range(iters):
        s = s + z - x
        x = problem.prox(alpha, s)
        y = 2.0 * x - s
        z = project_stiefel(y).mat
        traj.append((s.copy(), x.copy(), z.copy()))
    return traj


def global_average_drs(problem, s0, x0, z0, alpha, iters):
    """
    Stacked splitting recursion with an exact consensus projection:
    the z-update replicates the manifold projection of the mean of y.
    """
    s, x, z = s0.copy(), x0.copy(), z0.copy()
    n = len(problem)
    traj = []
    for _ in range(iters):
        s = s + z - x
        x = np.stack([problem[i].prox(alpha, s[i]) for i in range(n)])
        y = 2.0 * x - s
        ybar = project_stiefel(y.mean(axis=0)).mat
        z = np.stack([ybar] * n)
        traj.append((s.copy(), x.copy(), z.copy()))
    return traj


def projected_gradient_descent(problem, x0, alpha, iters):
    """Single-agent Riemannian gradient descent with polar retraction."""
    from ddrs.manifold import tangent_project, StiefelPoint

    x = x0.copy()
    traj = []
    for _ in range(iters):
        g = tangent_project(StiefelPoint(x), problem.egrad(x))
        x = project_stiefel(x - alpha * g).mat
        traj.append(x.copy())
    return traj


def prox_by_gradient_descent(inst, alpha, s, tol=1e-12, max_iters=200000):
    """
    Minimize f(y) + ||y - s||^2 / (2 alpha) by plain gradient descent.

    The objective is strongly convex (curvature at least 1/alpha), so this
    converges from any start; used as an independent check of the linear
    solve inside the prox.
    """
    lip = inst.smoothness() + 1.0 / alpha
    step = 1.0 / lip
    y = s.copy()
    for _ in range(max_iters):
        g = inst.egrad(y) + (y - s) / alpha
        y_new = y - step * g
        if np.linalg.norm(y_new - y) <= tol:
            return y_new
        y = y_new
    return y


def finite_difference_egrad(fn, x, h=1e-6):
    """Central finite differences of a matrix-input scalar function."""
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        e = np.zeros_like(x)
        e[idx] = h
        g[idx] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def procrustes_min_by_sampling(rng, x, xstar, samples=10000):
    """Brute-force min over sampled orthogonal Q of ||x Q - xstar||."""
    r = x.shape[1]
    best = np.inf
    for _ in range(samples):
        q = random_orthogonal(rng, r)
        best = min(best, float(np.linalg.norm(x @ q - xstar)))
    return best


def procrustes_min_by_rotation_sweep(x, xstar, grid=200001):
    """
    Exact 1-D sweep for r = 2: orthogonal 2x2 matrices are rotations and
    reflections of a single angle.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, grid)
    best = np.inf
    for theta in thetas:
        c, s = np.cos(theta), np.sin(theta)
        for q in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
            best = min(best, float(np.linalg.norm(x @ q - xstar)))
    return best


def dense_tv_bound_holds(W, t_max, tol=0.0):
    """
    Check max_i sum_j |(W^t)_ij - 1/n| <= sqrt(n) * sigma2^t by forming the
    dense powers (small n only).
    """
    M = W.W
    n = M.shape[0]
    P = np.eye(n)
    for t in range(1, t_max + 1):
        P = P @ M
        lhs = np.abs(P - 1.0 / n).sum(axis=1).max()
        rhs = np.sqrt(n) * W.sigma2 ** t
        if lhs > rhs + tol:
            return False, t, lhs, rhs
    return True, None, None, None


def analytic_dpca_optimum(dataset):
    """
    Optimal consensus value and basis from the assembled covariance.

    Independent of the solver path: eigendecomposition of sum_i A_i^T A_i,
    from the Grams a run's ``RunSetup.dataset`` keeps, or from the blocks
    of a ``Dataset``; each shift is the top of its Gram's dense spectrum.
    """
    grams = getattr(dataset, "grams", None)
    if grams is None:
        grams = [b.T @ b for b in dataset.blocks]
    evals, evecs = np.linalg.eigh(sum(grams))
    r = dataset.ground_truth.shape[1] if dataset.ground_truth is not None else None
    if r is None:
        raise ValueError("dataset has no target rank")
    shifts = [float(np.linalg.eigvalsh(g)[-1]) for g in grams]
    top = evals[::-1][:r]
    fstar = -0.5 * float(np.sum(top)) + 0.5 * r * float(np.sum(shifts))
    vstar = evecs[:, ::-1][:, :r]
    return fstar, vstar


def gen_synthetic_full(n, m_per, d, r, xi, seed):
    """
    The synthetic generator that forms every direction: reduced QR of the
    whole ``(n*m_per, d)`` and ``(d, d)`` draws, the full data matrix, its
    shuffled copy and one copy per block.  Same streams and argument checks
    as ``ddrs.problems.gen_synthetic``.
    """
    if not (0.0 < xi < 1.0):
        raise ValueError("xi must lie in (0, 1), got %r" % (xi,))
    total = n * m_per
    if total < d:
        raise ValueError("need n*m_per >= d, got %d < %d" % (total, d))
    if not (1 <= r <= d):
        raise ValueError("need 1 <= r <= d")
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((total, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sv = xi ** np.arange(1, d + 1)
    A = (U * sv) @ V.T
    A = A[rng.permutation(total)]
    blocks = [A[i * m_per:(i + 1) * m_per].copy() for i in range(n)]
    return Dataset(blocks, StiefelPoint(V[:, :r]))


def prox_with_injected_residual(inst, alpha, s, mu):
    """
    Return x whose prox optimality residual is exactly ``mu``.

    Solving the exact prox from ``s + mu`` gives
    ``x - (s + mu) + alpha * egrad(x) = 0``, i.e. the residual against s is
    mu itself: a prescribed disturbance for exercising inexactness contracts.
    """
    mu = np.asarray(mu, dtype=float)
    x = inst.prox(alpha, np.asarray(s, dtype=float) + mu)
    return x, inst.residual(alpha, s, x)


def count_gram_products(inst):
    """
    Spy on ``inst._gram_apply``: the returned list gets each call's column
    count.  The spy is an attribute of ``inst`` alone, so it goes with it.
    """
    calls = []
    product = inst._gram_apply

    def spy(x):
        calls.append(x.shape[1])
        return product(x)

    inst._gram_apply = spy
    return calls


def gram_loss(inst, x):
    """
    An agent's loss ``-tr(x^T (G - shift I) x) / 2`` from its Gram matrix G
    and shift alone, independent of ``egrad``.
    """
    x = np.asarray(x, dtype=float)
    h = inst.gram - inst.shift * np.eye(inst.dim)
    return -0.5 * float(np.trace(x.T @ h @ x))


def fresh_gram_product(inst, x):
    """``inst._gram_apply(x)``, past any spy on the instance."""
    return type(inst)._gram_apply(inst, x)


def gram_rounding(inst, x):
    """
    How far a certified Gram product of x may lie from a fresh one:
    ``4 (d + 2) u ||G||_F ||x||_F``, u the unit roundoff.

    A CG certificate combines ``G x_prev + step G p`` only when
    ``||step p|| <= ||x||``, so ``||x_prev|| <= 2 ||x||``.  Each product is
    within ``d u ||G||_F`` times its operand's norm, and the fresh one, the
    combination's sum and the rounding of ``x = x_prev + step p`` add a few
    u more.
    """
    u = np.finfo(float).eps / 2
    return (4 * (inst.dim + 2) * u * float(np.linalg.norm(inst.gram))
            * float(np.linalg.norm(x)))


def envelope_rounding(problem, alpha, x_blocks):
    """
    How far two ``dre_value`` evaluations near proxes ``x_blocks`` may
    differ by rounding alone: ``16 u sum_i (2 shift_i + 1 / alpha)
    (||x_i|| + sqrt(r))^2``, u the unit roundoff.

    The bracket bounds the size of the summands that ``dre_value`` adds:
    the loss and gradient term ``<shift x - G x, ybar - x / 2>`` and
    ``||ybar - x||^2 / (2 alpha)``, with ``||ybar|| = sqrt(r)``.  They can
    cancel to a much smaller value.
    """
    u = np.finfo(float).eps / 2
    x_blocks = np.asarray(x_blocks, dtype=float)
    root_r = np.sqrt(x_blocks.shape[-1])
    return 16 * u * sum(
        (2 * inst.shift + 1 / alpha) * (float(np.linalg.norm(x)) + root_r) ** 2
        for inst, x in zip(problem, x_blocks, strict=True))


def assert_certified_product(inst, alpha, s, x, mu, gx, calls):
    """
    Check what a ``prox_inexact`` solve returned with x.  Its residual is
    ``apply_system(alpha, x, gx) - s`` bitwise.  gx is a fresh product of x
    bitwise when the solve's last product had r columns (it took no CG
    step, or a guard tripped), and otherwise, after a (d, 2r) block,
    within ``gram_rounding`` of one.
    """
    assert np.array_equal(mu, inst.apply_system(alpha, x, gx) - s)
    fresh = fresh_gram_product(inst, x)
    if calls[-1] == x.shape[1]:
        assert np.array_equal(gx, fresh)
    else:
        assert calls[-1] == 2 * x.shape[1]
        assert np.linalg.norm(gx - fresh) <= gram_rounding(inst, x)


def save_matrix(path, M):
    """Write a matrix as text: header line ``m d``, then one row per line."""
    M = np.asarray(M, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % M.shape)
        for row in M:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


def load_matrix(path):
    """Read a matrix written by ``save_matrix``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("bad matrix header in %s" % path)
        m, d = int(header[0]), int(header[1])
        body = np.loadtxt(fh, ndmin=2)
    if body.shape != (m, d):
        raise ValueError(
            "matrix body %s does not match header (%d, %d)" % (body.shape, m, d)
        )
    return body


def tangent_dir_per_block(x, v):
    """Tangent projection ``v - x sym(x^T v)`` of one d-by-r block."""
    a = x.T @ v
    return v - x @ (0.5 * (a + a.T))


def per_agent_splitting_step(stack, problem, W, params, k=None):
    """
    The splitting step written agent by agent: the exact step when ``k`` is
    None, otherwise the inexact step at tolerance ``eps0 * rho**k``.  Each
    inexact solve starts where ``extrapolated_start`` puts it, from the
    agent's history in ``stack``, and the new history is built here agent
    by agent: the certified products, and the differences of the last
    three certified proxes and of their products, the newest first.
    """
    n = stack.n
    s = stack.s + stack.z - stack.x
    gx = dx = dgx = None
    if k is None:
        x = np.stack([problem[i].prox(params.alpha, s[i]) for i in range(n)])
        mu_sq = None
    else:
        eps = epsilon_schedule(params.eps0, params.rho, k)
        xs, mu_sq, gxs = [], [], []
        for i in range(n):
            history = [None if h is None else h[i]
                       for h in (stack.gx, stack.dx, stack.dgx)]
            x0, gx0 = extrapolated_start(problem[i], params.alpha, s[i],
                                         stack.x[i], *history)
            xi, mu, gxi = problem[i].prox_inexact(params.alpha, s[i], eps,
                                                  x0=x0, gx0=gx0)
            xs.append(xi)
            mu_sq.append(float(np.vdot(mu, mu)))
            gxs.append(gxi)
        x, mu_sq, gx = np.stack(xs), np.array(mu_sq), np.stack(gxs)
        if stack.gx is not None:
            dx, dgx = [], []
            for i in range(n):
                dx.append([x[i] - stack.x[i]])
                dgx.append([gx[i] - stack.gx[i]])
                if stack.dx is not None:
                    dx[i].append(stack.dx[i][0])
                    dgx[i].append(stack.dgx[i][0])
            dx, dgx = np.array(dx), np.array(dgx)
    d = mix_per_agent(W, params.t, stack.d) + (x - s) - (stack.x - stack.s)
    mixed = mix_per_agent(W, params.t, x)
    z = np.stack([svd_polar(mixed[i] + d[i]) for i in range(n)])
    return AgentStack(s=s, x=x, z=z, d=d, k=stack.k + 1,
                      mu_sq=mu_sq, gx=gx, dx=dx, dgx=dgx)


def per_agent_baseline_step(stack, problem, W, params):
    """The gradient-tracking baseline step written agent by agent."""
    n = stack.n
    mixed = mix_per_agent(W, params.t, stack.x)
    x = np.stack([
        svd_polar(mixed[i] - params.alpha
                  * tangent_dir_per_block(stack.x[i], stack.v[i]))
        for i in range(n)
    ])
    grad = np.stack([problem[i].egrad(x[i]) for i in range(n)])
    v = mix_per_agent(W, params.t, stack.v) + grad - stack.grad
    return BaselineStack(x=x, v=v, grad=grad, k=stack.k + 1)


def mix_per_agent(W, t, X):
    """t gossip rounds written agent by agent: ``out_i = sum_j W_ij X_j``."""
    n = W.n
    blocks = [np.array(X[i], dtype=float) for i in range(n)]
    for _ in range(t):
        blocks = [sum(W.W[i, j] * blocks[j] for j in range(n))
                  for i in range(n)]
    return np.stack(blocks)


def idx_bytes(magic, dims, payload):
    """An IDX file: big-endian magic and int32 sizes, then the payload bytes."""
    header = struct.pack(">I", magic) + b"".join(struct.pack(">i", d) for d in dims)
    return header + bytes(payload)


def pixel_like_images(count, rows, cols, seed, border=4):
    """
    Deterministic ``uint8`` images shaped like scanned digits.

    Inside a zero border of ``border`` pixels, each image is one of ten
    smooth strokes (sums of four Gaussian bumps), scaled by a random
    factor, plus Gaussian noise, rounded and clipped to 0..255.  The images
    exercise the IDX path offline; they say nothing about MNIST.
    """
    rng = np.random.default_rng(seed)
    h, w = rows - 2 * border, cols - 2 * border
    yy, xx = np.mgrid[0:h, 0:w]
    cy = rng.uniform(0, h, size=(10, 4, 1, 1))
    cx = rng.uniform(0, w, size=(10, 4, 1, 1))
    spread = 2.0 * (0.15 * max(h, w)) ** 2
    strokes = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / spread).sum(axis=1)
    strokes *= 255.0 / strokes.max(axis=(1, 2), keepdims=True)
    labels = rng.integers(10, size=count)
    inner = (strokes[labels] * rng.uniform(0.5, 1.0, size=(count, 1, 1))
             + rng.normal(0.0, 20.0, size=(count, h, w)))
    images = np.zeros((count, rows, cols), dtype=np.uint8)
    images[:, border:rows - border, border:cols - border] = np.clip(
        np.rint(inner), 0, 255)
    return images
