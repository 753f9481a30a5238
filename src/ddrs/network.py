"""
Communication topology.

Undirected connected graphs (ring, Erdos-Renyi, complete), Metropolis
constant-edge-weight mixing matrices, spectral-gap computation, and the
t-round gossip mixing primitive that simulates neighbor communication.
"""

import numpy as np
from dataclasses import dataclass, field


class NotConnectedError(RuntimeError):
    """Could not produce a connected graph."""


class SpectralGapViolationError(ValueError):
    """Second-largest singular value is (numerically) 1: no spectral gap."""


def _normalize_edges(n, edges):
    out = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError("self-loop (%d, %d) not allowed" % (i, j))
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("edge (%d, %d) out of range for n=%d" % (i, j, n))
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


def _is_connected(n, edges):
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on nodes 0..n-1 without self-loops."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one node")
        edges = _normalize_edges(self.n, self.edges)
        if not _is_connected(self.n, edges):
            raise NotConnectedError("graph on %d nodes is not connected" % self.n)
        object.__setattr__(self, "edges", edges)

    def degrees(self):
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def gen_ring(n):
    """Cycle graph 0-1-...-(n-1)-0; needs n >= 3."""
    if n < 3:
        raise ValueError("ring needs n >= 3, got %d" % n)
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def gen_complete(n):
    """Complete graph on n >= 2 nodes."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2, got %d" % n)
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def gen_erdos_renyi(n, p, seed, max_tries=1000):
    """
    Erdos-Renyi graph: each pair is an edge independently with probability p.

    Disconnected draws are rejected and resampled from the same seeded
    stream; after ``max_tries`` failures a NotConnectedError signals that p
    is too small for n.
    """
    if n < 2:
        raise ValueError("need n >= 2, got %d" % n)
    if not (0.0 < p <= 1.0):
        raise ValueError("need p in (0, 1], got %r" % (p,))
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(max_tries):
        mask = rng.random(len(pairs)) < p
        edges = frozenset(e for e, keep in zip(pairs, mask) if keep)
        if _is_connected(n, edges):
            return Graph(n, edges)
    raise NotConnectedError(
        "no connected draw in %d tries (n=%d, p=%g)" % (max_tries, n, p)
    )


_ASSUMPTION_TOL = 1e-12


@dataclass(frozen=True)
class MixingMatrix:
    """
    Symmetric doubly stochastic gossip matrix aligned with a graph.

    Off-diagonal entries are positive exactly on edges, rows sum to one, and
    the second-largest singular value ``sigma2`` (cached) is strictly below
    one, so repeated application contracts toward the average.
    """

    W: np.ndarray
    sigma2: float = field(init=False)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("mixing matrix must be square, got %s" % (W.shape,))
        if np.any(W < -_ASSUMPTION_TOL):
            raise ValueError("mixing matrix has negative entries")
        if np.linalg.norm(W - W.T, ord=np.inf) > _ASSUMPTION_TOL:
            raise ValueError("mixing matrix is not symmetric")
        rows = np.abs(W.sum(axis=1) - 1.0).max()
        if rows > _ASSUMPTION_TOL:
            raise ValueError("rows do not sum to 1 (max deviation %.3e)" % rows)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "sigma2", second_singular(W))

    @property
    def n(self):
        return self.W.shape[0]

    def check_pattern(self, graph):
        """Off-diagonal support must match the edge set exactly."""
        if graph.n != self.n:
            raise ValueError("graph size %d vs matrix size %d" % (graph.n, self.n))
        for i in range(self.n):
            for j in range(i + 1, self.n):
                on_edge = (i, j) in graph.edges
                positive = self.W[i, j] > 0.0
                if on_edge != positive:
                    raise ValueError(
                        "entry (%d, %d) inconsistent with edge set" % (i, j)
                    )


def metropolis_weights(graph):
    """
    Metropolis constant-edge-weight matrix of a connected graph.

    ``W_ij = 1 / (1 + max(deg_i, deg_j))`` on edges, zero off edges, and the
    diagonal absorbs the slack so each row sums to one.
    """
    n = graph.n
    deg = graph.degrees()
    W = np.zeros((n, n))
    for i, j in graph.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = W[j, i] = w
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    mix_matrix = MixingMatrix(W)
    mix_matrix.check_pattern(graph)
    return mix_matrix


def second_singular(W):
    """
    Second-largest singular value of a mixing matrix.

    Raises SpectralGapViolationError when it reaches 1 (within 1e-12), which
    means the matrix cannot contract disagreement (disconnected support).
    """
    W = np.asarray(W, dtype=float)
    sv = np.linalg.svd(W, compute_uv=False)
    if len(sv) < 2:
        return 0.0
    s2 = float(sv[1])
    if s2 >= 1.0 - 1e-12:
        raise SpectralGapViolationError(
            "second singular value %.15f has no gap below 1" % s2
        )
    return s2


def mix(W, t, X):
    """
    Apply t rounds of gossip averaging to stacked per-agent blocks.

    Block i of the result is ``sum_j (W^t)_ij X_j``, realized as t sequential
    neighbor-weighted-sum rounds (the power W^t is never formed; this is the
    simulated communication).  Each round is one GEMM of W with the stack
    viewed as an (n, block size) matrix.

    Parameters
    ----------
    W : MixingMatrix
    t : int
        Number of communication rounds, >= 0.
    X : ndarray
        Stack of shape (n, ...) with one leading block per agent.

    Returns
    -------
    ndarray of the same shape.
    """
    if t < 0:
        raise ValueError("rounds must be >= 0, got %d" % t)
    X = np.asarray(X, dtype=float)
    if X.shape[0] != W.n:
        raise ValueError(
            "got %d blocks for a %d-agent mixing matrix" % (X.shape[0], W.n)
        )
    out = X.reshape(W.n, -1)
    for _ in range(t):
        out = W.W @ out
    return out.reshape(X.shape)


def save_edgelist(graph, path):
    """Write a graph as text: first line ``n``, then one ``i j`` edge per line."""
    lines = [str(graph.n)]
    lines += ["%d %d" % e for e in sorted(graph.edges)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edgelist(path):
    """Read a graph written by ``save_edgelist``."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError("empty edge-list file: %s" % path)
    n = int(tokens[0])
    rest = tokens[1:]
    if len(rest) % 2 != 0:
        raise ValueError("odd number of endpoints in %s" % path)
    edges = [(int(rest[2 * k]), int(rest[2 * k + 1])) for k in range(len(rest) // 2)]
    return Graph(n, frozenset(edges))
