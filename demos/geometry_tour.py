"""Tour of the Stiefel geometry primitives.

Run with: python demos/geometry_tour.py
"""

import numpy as np

from ddrs import (
    manifold_constants,
    project_stiefel,
    random_stiefel,
    subspace_distance,
    tangent_project,
    tube_distance,
)

rng = np.random.default_rng(7)
d, r = 8, 3

# Any full-rank tall matrix projects to its polar factor.
M = rng.standard_normal((d, r))
x = project_stiefel(M)
print("projection orthonormality error:",
      np.linalg.norm(x.mat.T @ x.mat - np.eye(r)))
print("distance from M to the manifold:", tube_distance(M))

# The tube radius gamma = 1/2 bounds where the projection is well behaved;
# the diameter zeta = 2 sqrt(r) bounds how far apart two frames can be.
consts = manifold_constants(d, r)
print("constants:", consts)

# Tangent projection strips the symmetric part of x^T v.
v = rng.standard_normal((d, r))
tv = tangent_project(x, v)
print("skew residual of tangent vector:",
      np.linalg.norm(x.mat.T @ tv.dir + tv.dir.T @ x.mat))

# Riemannian gradients are tangent projections of Euclidean ones.
egrad = rng.standard_normal((d, r))
print("riemannian gradient norm:", tangent_project(x, egrad).norm)

# The subspace distance ignores rotations of the frame.
q, _ = np.linalg.qr(rng.standard_normal((r, r)))
y = random_stiefel(d, r, rng)
print("d_s(x, x Q) =", subspace_distance(x, x.mat @ q))
print("d_s(x, y)   =", subspace_distance(x, y))

# Scaling a frame radially moves it straight out of the manifold.
print("tube distance of 1.5 x:", tube_distance(1.5 * x.mat),
      " (expected 0.5 * sqrt(r) =", 0.5 * np.sqrt(r), ")")
