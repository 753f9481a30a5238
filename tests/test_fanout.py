"""
The per-agent pool: pooled work equals serial work bit for bit, errors from
workers end runs as serial errors do, and the pool stays within the CPUs.
"""

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

import ddrs.fanout as fanout
from ddrs.algorithms import SolverParams, ddrs_init, iddrs_step
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


def _threads_used(n):
    ran_on = set()

    def task(i):
        ran_on.add(threading.current_thread().name)
        return i

    assert fanout.map_agents(task, range(n), dim=D) == list(range(n))
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
    ran_on = fanout.map_agents(lambda i: threading.current_thread(),
                               range(4), dim=D - 1)
    assert ran_on == [threading.current_thread()] * 4


def test_pooled_iddrs_step_equals_per_agent_reference(wide_data, pooled):
    problem = wide_data.instances()
    W = metropolis_weights(gen_erdos_renyi(4, 0.8, seed=1))
    params = SolverParams(alpha=0.5, t=2)
    x = random_stiefel_mat(np.random.default_rng(2), D, 3)
    stack = ddrs_init(problem, W, params, [x] * 4)
    for k in range(4):
        got = iddrs_step(stack, problem, W, params, k)
        want = per_agent_splitting_step(stack, problem, W, params, k)
        for name in ("s", "x", "y", "z", "d", "mu_sq"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name), err_msg=name)
        stack = got


def test_pooled_runs_repeat_and_match_the_serial_run(pooled, monkeypatch):
    cfg = preset("synthetic-er06", WIDE)
    first, summary = run_experiment(cfg)
    again, _ = run_experiment(cfg)
    assert summary["status"] == "ok"
    assert _strip_wall(first) == _strip_wall(again)
    monkeypatch.setattr(fanout, "FANOUT_MIN_DIM", D + 1)
    serial_records, _ = run_experiment(cfg)
    assert _strip_wall(first) == _strip_wall(serial_records)


def _called_from_the_step():
    """Whether the patched prox's caller is ``iddrs_step``, not the envelope."""
    return sys._getframe(2).f_globals["__name__"] == "ddrs.algorithms"


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
    solve = DPCAInstance.prox_inexact

    def stall(self, alpha, s, eps, x0=None):
        # Only the step's solves stall; the records' envelope solves still
        # run.  Both are warm-started, so the caller's module tells them apart.
        if not _called_from_the_step():
            return solve(self, alpha, s, eps, x0=x0)
        raised_on.add(threading.current_thread().name)
        raise SolverStallError("stalled on the agent with shift %.17g"
                               % self.shift)

    if inject == "stall":
        monkeypatch.setattr(DPCAInstance, "prox_inexact", stall)
    else:
        monkeypatch.setattr("ddrs.harness.iddrs_step", _poison_at_k2)
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
    if inject == "stall":
        assert any(name.startswith("ddrs-agent") for name in raised_on)


def test_a_stalled_envelope_solve_takes_the_exact_prox_pooled_and_serial(
        monkeypatch):
    # The envelope only monitors a run: its stalled solves fall back to the
    # exact prox, on the pool as serially, and the run goes on.
    raised_on = set()
    solve = DPCAInstance.prox_inexact

    def stall(self, alpha, s, eps, x0=None):
        if _called_from_the_step():
            return solve(self, alpha, s, eps, x0=x0)
        raised_on.add(threading.current_thread().name)
        raise SolverStallError("stalled")

    cfg = preset("synthetic-er06", WIDE)
    reference = run_experiment(cfg)[0]
    monkeypatch.setattr(DPCAInstance, "prox_inexact", stall)
    runs = {}
    for mode in ("pooled", "serial"):
        with monkeypatch.context() as patch:
            if mode == "pooled":
                patch.setattr(fanout, "pool_size", lambda: 2)
            else:
                patch.setattr(fanout, "FANOUT_MIN_DIM", D + 1)
            runs[mode] = run_experiment(cfg)
    (pooled_records, pooled_run), (serial_records, serial_run) = (
        runs["pooled"], runs["serial"])
    assert pooled_run["status"] == serial_run["status"] == "ok"
    assert _strip_wall(pooled_records) == _strip_wall(serial_records)
    assert any(name.startswith("ddrs-agent") for name in raised_on)
    for got, want in zip(pooled_records, reference, strict=True):
        assert abs(got.dre - want.dre) <= 1e-10 * abs(want.dre)
