"""
Benchmark workloads: named overlays on a shipped preset.

Every workload is the ``synthetic-er06-t10`` preset as ``ddrs run`` takes it,
with a few keys overridden.  The benchmark seed draws the communication
graph: seed ``s`` uses the preset's graph seed plus ``s``, so seed 0 is the
preset exactly.  The data and the starting point stay the preset's, as a
fixed dataset would.  They are not drawn from the seed because the
iterations needed to reach the subspace target depend on how the random
start overlaps the optimum, which has a long tail: at d=784 one start in
eight needs 330 iterations where the preset's needs 220.  A seed-drawn start
would spread the target metrics beyond their bounds and make runs fail.
"""

from dataclasses import dataclass

from ddrs.harness import preset

PRESET = "synthetic-er06-t10"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: str


# er06-monitored is left out of BENCHMARK.json.  On a 2-vCPU Xeon VM shared
# with other tenants, its interpreter-bound timings moved by up to 1.85x
# between runs minutes apart, beyond any bound the benchmark format allows,
# while the BLAS-bound wide workloads moved by under a fifth.  Compare it
# with paired before/after runs instead.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="er06-monitored",
        why="preset scale (n=8, d=10, r=5, t=10), exact DDRS, 500 iterations "
            "with a record every iteration: interpreter overhead, small SVDs "
            "and the monitoring oracles dominate",
        overrides="",
    ),
    Workload(
        name="wide-exact",
        why="MNIST width (d=784), exact DDRS with sparse records: the "
            "factored prox solve and the set-up factorizations dominate",
        overrides="problem.d = 784\nmax_iters = 300\nlog_every = 40\n",
    ),
    Workload(
        name="wide-inexact",
        why="same shape run with iDDRS: conjugate-gradient matvecs against the "
            "Gram matrix replace the factored solve; control for exact-prox changes",
        overrides="problem.d = 784\nmax_iters = 300\nlog_every = 40\n"
                  "algorithm.kind = iddrs\n",
    ),
)}


def instance_overrides(workload, seed):
    """Config text overlaid on the workload's preset for one seed."""
    if seed < 0:
        raise ValueError("seed must be >= 0, got %d" % seed)
    return workload.overrides + "graph.seed = %d\n" % (preset(PRESET).graph.seed + seed)


def instance_config(workload, seed):
    """The resolved ExperimentConfig a run with this seed executes."""
    return preset(PRESET, instance_overrides(workload, seed))
