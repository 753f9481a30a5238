"""Certified-inexact proximal steps and the summable tolerance schedule.

Run with: python demos/inexact_prox.py
"""

import numpy as np

from ddrs import (
    SolverParams,
    StiefelPoint,
    ddrs_init,
    ddrs_step,
    epsilon_schedule,
    gen_erdos_renyi,
    gen_synthetic,
    iddrs_step,
    metropolis_weights,
    random_stiefel,
)

rng = np.random.default_rng(11)
data = gen_synthetic(4, 100, 8, 3, 0.8, seed=5)
problem = data.instances()
W = metropolis_weights(gen_erdos_renyi(4, 0.7, seed=2))

# One instance, one prox, three tolerance levels.
inst = problem[0]
s = rng.standard_normal((8, 3))
for eps in [1e-2, 1e-6, 1e-12]:
    x, mu, _ = inst.prox_inexact(0.8, s, eps)
    print("eps=%.0e  realized ||mu||^2 = %.3e" % (eps, float(np.vdot(mu, mu))))

# The geometric schedule is summable, which is all the accuracy theory asks.
eps0, rho = 1e-6, 0.9
print("\nschedule eps0=1e-6, rho=0.9: sum =", eps0 / (1 - rho))

# Side-by-side: the inexact engine with the schedule tracks the exact one.
params = SolverParams(alpha=3.0, t=5, eps0=eps0, rho=rho)
x0 = [StiefelPoint(random_stiefel(8, 3, rng).mat)] * 4
exact = ddrs_init(problem, W, params, x0)
inexact = ddrs_init(problem, W, params, x0)
print("\niter   max|exact - inexact|   worst ||mu||^2 / eps_k")
for k in range(60):
    exact = ddrs_step(exact, problem, W, params)
    inexact = iddrs_step(inexact, problem, W, params, k)
    if (k + 1) % 10 == 0:
        gap = np.abs(exact.x - inexact.x).max()
        ratio = inexact.mu_sq.max() / epsilon_schedule(eps0, rho, k)
        print("%4d   %.3e               %.3f" % (k + 1, gap, ratio))
