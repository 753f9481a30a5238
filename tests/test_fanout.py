"""
The per-agent pool: pooled work equals serial work bit for bit, errors from
workers end runs as serial errors do, and the pool stays within the CPUs.
"""

import dataclasses
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import ddrs.fanout as fanout
from ddrs.algorithms import SolverParams, ddrs_init, ddrs_step, iddrs_step
from ddrs.harness import preset, run_experiment
from ddrs.network import gen_erdos_renyi, metropolis_weights
from ddrs.problems import DPCAInstance, SolverStallError, gen_synthetic

from helpers import per_agent_splitting_step, random_stiefel_mat

# The smallest width that fans out; 4 agents keep the data small.
D = fanout.FANOUT_MIN_DIM
WIDE = ("problem.n = 4\nproblem.m_per = %d\nproblem.d = %d\n"
        "algorithm.kind = iddrs\nmax_iters = 12\nlog_every = 3\n" % (D, D))


@pytest.fixture
def pooled(monkeypatch):
    """Two workers, whatever the machine's CPUs and BLAS threads."""
    monkeypatch.setattr(fanout, "pool_size", lambda: 2)


@pytest.fixture(scope="module")
def wide_data():
    return gen_synthetic(4, D, D, 3, 0.8, seed=11)


def _strip_wall(records):
    return [(r.k, r.consensus_sq, r.stationarity_sq, r.dre, r.obj, r.ds,
             r.mu_sq_max) for r in records]


def _agents(n, dim=D):
    """Stand-ins for n agents' objectives; ``map_agents`` reads their width."""
    return [SimpleNamespace(dim=dim)] * n


def _threads_used(n):
    ran_on = set()

    def task(agent, i):
        ran_on.add(threading.current_thread().name)
        return i

    assert fanout.map_agents(task, _agents(n), range(n)) == list(range(n))
    return ran_on


@pytest.fixture
def fresh_pool_size(monkeypatch):
    """``pool_size`` read again from the environment this test sets."""
    for var in fanout._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    fanout.pool_size.cache_clear()
    yield fanout.pool_size
    fanout.pool_size.cache_clear()


def test_pool_size_never_exceeds_usable_cpus(fresh_pool_size, monkeypatch):
    cpus = fanout.usable_cpus()
    assert fresh_pool_size() == 1  # BLAS left on every CPU: serial
    for value in ("1", "2", "0", "-3", "many", str(4 * cpus)):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        fresh_pool_size.cache_clear()
        assert 1 <= fresh_pool_size() <= cpus
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    fresh_pool_size.cache_clear()
    assert fresh_pool_size() == cpus
    assert 1 <= len(_threads_used(32)) <= cpus


def test_pool_size_is_read_once_per_process(fresh_pool_size, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    first = fresh_pool_size()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1000")
    assert fresh_pool_size() == first


def test_pool_workers_follow_the_pool_size(pooled):
    assert 1 <= len(_threads_used(32)) <= 2
    assert fanout._executor(os.getpid(), 2)._max_workers == 2
    # One agent never leaves the calling thread.
    assert _threads_used(1) == {threading.current_thread().name}


def test_below_the_threshold_agents_run_on_the_calling_thread(pooled):
    ran_on = fanout.map_agents(lambda agent: threading.current_thread(),
                               _agents(4, D - 1))
    assert ran_on == [threading.current_thread()] * 4


def test_an_absent_per_agent_argument_is_none_in_every_call(pooled):
    got = fanout.map_agents(lambda agent, i, h: (agent.dim, i, h),
                            _agents(4), range(4), None)
    assert got == [(D, i, None) for i in range(4)]
    with pytest.raises(ValueError):
        fanout.map_agents(lambda agent, i: i, _agents(4), range(3))


def test_pooled_iddrs_step_equals_per_agent_reference(wide_data, pooled):
    problem = wide_data.instances()
    W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
    params = SolverParams(alpha=0.5, t=2)
    x = random_stiefel_mat(np.random.default_rng(2), D, 3)
    stack = ddrs_init(problem, W, params, [x] * 4)
    for k in range(4):
        got = iddrs_step(stack, problem, W, params, k)
        want = per_agent_splitting_step(stack, problem, W, params, k)
        # The pool runs the proxes, whose fields are the reference's bit for
        # bit.  z and d come from mix and the projection, which the
        # reference computes its own way, so they agree to rounding; a pooled
        # run's are the serial run's bit for bit (the test below).
        for name in ("s", "x", "y", "mu_sq", "gx", "dx", "dgx"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name), err_msg=name)
        for name in ("z", "d"):
            gap = np.abs(getattr(got, name) - getattr(want, name)).max()
            assert gap <= 1e-12, name
        stack = got
    assert stack.dx.shape == (4, 2, D, 3)


@pytest.mark.parametrize("kind, extra", [
    ("ddrs", ""), ("iddrs", ""), ("ddrs", "problem.xi = 0.9\n")],
    ids=["ddrs", "iddrs", "ddrs-dense"])
def test_pooled_runs_repeat_and_match_the_serial_run(pooled, monkeypatch,
                                                     kind, extra):
    # An exact run builds every agent's prox factor in its k = 0 envelope:
    # the certified pivoted factor at xi = 0.8, and at xi = 0.9, whose
    # Grams keep more than d/3 pairs, eigh's dense factor on the pool.
    pivoted = DPCAInstance._pivoted_factor
    attempts = []
    monkeypatch.setattr(
        DPCAInstance, "_pivoted_factor",
        lambda inst: attempts.append(pivoted(inst)) or attempts[-1])
    cfg = preset("synthetic-er06", WIDE.replace("iddrs", kind) + extra)
    first, summary = run_experiment(cfg)
    again, _ = run_experiment(cfg)
    assert summary["status"] == "ok"
    assert _strip_wall(first) == _strip_wall(again)
    monkeypatch.setattr(fanout, "FANOUT_MIN_DIM", D + 1)
    serial_records, _ = run_experiment(cfg)
    assert _strip_wall(first) == _strip_wall(serial_records)
    if kind == "ddrs":
        assert len(attempts) == 3 * 4
        assert all((got is None) == bool(extra) for got in attempts)
    else:
        assert attempts == []


# The name ``_SpyPool`` records for an exact prox.
EXACT_PROX = "exact_proxes.<locals>.prox"


class _SpyPool:
    """The per-agent pool, recording the name of each submitted function."""

    def __init__(self, pool):
        self._pool = pool
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append(fn.__qualname__)
        return self._pool.submit(fn, *args)


@pytest.fixture
def spy_pool(pooled, monkeypatch):
    spy = _SpyPool(fanout._executor(os.getpid(), 2))
    monkeypatch.setattr(fanout, "_executor", lambda pid, workers: spy)
    return spy


def _spy_builds(monkeypatch):
    """The thread of each pivoted and eigh factor build, by kind."""
    built_on = {"_pivoted_factor": [], "_eigh_factor": []}
    for name, calls in built_on.items():
        def spy(inst, *args, build=getattr(DPCAInstance, name), calls=calls):
            calls.append(threading.current_thread().name)
            return build(inst, *args)

        monkeypatch.setattr(DPCAInstance, name, spy)
    return built_on


def test_low_rank_exact_steps_stay_off_the_pool(spy_pool, monkeypatch):
    # Record 0's envelope builds every factor on the calling thread, one
    # pivoted factor per agent; each is low-rank, so nothing submits an
    # exact prox, neither the envelope nor any step.
    built_on = _spy_builds(monkeypatch)

    def step(*args):
        spy_pool.submitted.append("step")
        return ddrs_step(*args)

    monkeypatch.setattr("ddrs.harness.ddrs_step", step)
    cfg = preset("synthetic-er06", WIDE.replace("iddrs", "ddrs"))
    records, summary = run_experiment(cfg)
    assert summary["status"] == "ok" and len(records) == 5
    assert all(k <= D / 3 for k in summary["prox_rank"])
    main = threading.current_thread().name
    assert built_on == {"_pivoted_factor": [main] * 4, "_eigh_factor": []}
    assert EXACT_PROX not in spy_pool.submitted
    assert spy_pool.submitted.count("step") == 12
    assert "dre_value.<locals>.<lambda>" in spy_pool.submitted


def test_dense_exact_steps_use_the_pool_every_step(spy_pool, monkeypatch):
    # Full-rank Gaussian data keep every eigenpair, so each pivoted attempt
    # is refused on the calling thread and each factor is eigh's dense
    # inverse, built on the pool inside the first step's prox; every step
    # pools its proxes, and none tries the pivoted factor again.
    built_on = _spy_builds(monkeypatch)
    rng = np.random.default_rng(3)
    problem = [DPCAInstance(rng.standard_normal((D + 16, D)))
               for _ in range(4)]
    W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
    params = SolverParams(alpha=1e-3, t=2)
    stack = ddrs_init(problem, W, params, [random_stiefel_mat(rng, D, 3)] * 4)
    for _ in range(3):
        del spy_pool.submitted[:]
        stack = ddrs_step(stack, problem, W, params)
        assert spy_pool.submitted == [EXACT_PROX] * 4
    assert [inst.prox_rank for inst in problem] == [D] * 4
    assert built_on["_pivoted_factor"] == [threading.current_thread().name] * 4
    assert len(built_on["_eigh_factor"]) == 4
    assert all(name.startswith("ddrs-agent")
               for name in built_on["_eigh_factor"])


def _poison_at_k2(stack, *args):
    if stack.k == 2:
        s = stack.s.copy()
        s[1, 0, 0] = np.nan
        stack = dataclasses.replace(stack, s=s)
    return iddrs_step(stack, *args)


@pytest.mark.parametrize("inject, error", [
    ("stall", "SolverStallError: stalled on the agent with shift "),
    ("nan", "NonFiniteInputError: prox input contains non-finite entries"),
])
def test_worker_errors_end_the_run_as_serial_errors_do(monkeypatch, inject, error):
    raised_on = set()

    def stall(self, alpha, s, eps, x0=None, gx0=None):
        raised_on.add(threading.current_thread().name)
        raise SolverStallError("stalled on the agent with shift %.17g"
                               % self.shift)

    if inject == "nan":
        monkeypatch.setattr("ddrs.harness.iddrs_step", _poison_at_k2)
    else:
        monkeypatch.setattr(DPCAInstance, "prox_inexact", stall)
    cfg = preset("synthetic-er06", WIDE)
    summaries = {}
    for mode in ("pooled", "serial"):
        with monkeypatch.context() as patch:
            if mode == "pooled":
                patch.setattr(fanout, "pool_size", lambda: 2)
            else:
                patch.setattr(fanout, "FANOUT_MIN_DIM", D + 1)
            summaries[mode] = run_experiment(cfg)[1]
    pooled_run, serial_run = summaries["pooled"], summaries["serial"]
    assert pooled_run["status"] == serial_run["status"] == "diverged"
    assert pooled_run["error"] == serial_run["error"]
    assert pooled_run["error"].startswith(error)
    assert pooled_run["iterations"] == serial_run["iterations"]
    if inject != "nan":
        assert any(name.startswith("ddrs-agent") for name in raised_on)
