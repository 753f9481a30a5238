"""
Per-agent fan-out.

Each agent's conjugate-gradient prox, its dense exact prox, and the
eigendecomposition behind the first exact prox of an agent whose pivoted
factor is refused, reads only that agent's data, and NumPy releases the
interpreter lock inside the products and LAPACK calls that dominate them,
so at MNIST width the agents' work overlaps on a thread pool
(``problems.exact_proxes`` keeps the pivoted factors and the low-rank
proxes on the calling thread).  Every agent's computation is unchanged and
the results come back in agent order, so a pooled run is bitwise identical
to a serial one.
"""

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from itertools import repeat

# Below this feature dimension the agents' work stays on the calling thread.
# Paired medians, serial / pooled, of one iDDRS step (8 agents, r = 5, 1 BLAS
# thread, 2-vCPU VM): d=10 0.65/0.85 ms, d=64 1.05/1.45, d=128 1.58/2.70,
# d=256 2.62/3.00, d=384 5.75/4.28, d=784 26.4/15.1.  Below d=384 a CG
# iteration is mostly short NumPy calls that hold the interpreter lock, and
# the two workers wait on each other for it.
FANOUT_MIN_DIM = 384

# Variables OpenBLAS and MKL read their thread count from, OpenBLAS's own
# first, as OpenBLAS consults them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@functools.cache
def pool_size():
    """
    Worker threads of the per-agent pool: usable CPUs per BLAS thread.

    BLAS threads are the first valid variable of ``_BLAS_THREAD_VARS``, or
    every usable CPU when none is set.  Like BLAS, this reads them once per
    process; a limit set later at run time is not seen.  With
    single-threaded BLAS the pool has every usable CPU.  A BLAS that already
    spreads each product over every CPU gets 1, so the agents run serially:
    with 2 BLAS threads on 2 vCPUs, one d=784 iDDRS step of 8 agents took a
    median 18.0 ms (IQR 2.4) serially and 22.2 ms (IQR 2.7) pooled over 12
    alternating pairs, and the pool was faster in none of them.
    """
    cpus = usable_cpus()
    for var in _BLAS_THREAD_VARS:
        try:
            return max(1, cpus // max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            continue
    return 1


@functools.cache
def _executor(pid, workers):
    # One pool per process: a forked child has none of its parent's worker
    # threads.
    return ThreadPoolExecutor(max_workers=workers,
                              thread_name_prefix="ddrs-agent")


def map_agents(fn, problem, *per_agent):
    """
    ``[fn(inst, *args) for inst, *args in zip(problem, *per_agent)]``, the
    list in agent order.

    ``problem`` is the agents' objectives, and a per-agent argument given as
    None passes None to every call.  With ``problem[0].dim >=
    FANOUT_MIN_DIM`` and ``min(n, pool_size()) > 1`` the calls run on one
    shared pool of ``pool_size()`` threads, so at most that many agents run
    at once; otherwise they run serially on the calling thread.  The pool
    waits for every call before returning, and an exception is re-raised
    from the lowest agent that raised, as the serial loop would raise it.
    """
    calls = list(zip(problem, *(repeat(None, len(problem)) if a is None else a
                                for a in per_agent), strict=True))
    workers = pool_size()
    if problem[0].dim < FANOUT_MIN_DIM or min(len(calls), workers) <= 1:
        return [fn(*args) for args in calls]
    pool = _executor(os.getpid(), workers)
    futures = [pool.submit(fn, *args) for args in calls]
    wait(futures)
    return [future.result() for future in futures]
