"""
Layer spans for the traced benchmark run.

``Tracer`` keeps spans in memory: ``(name, start_ns, end_ns, parent, note)``
with ``parent`` the index of the enclosing span (-1 at top level) and
``note`` an optional number taken from the call's arguments (the round
count of ``mix``).  ``installed`` wraps the library's public functions at the
places they are imported, so no library file changes; a target a later
version removes is reported as missing and simply records no calls.

``layer_metrics`` turns the spans of one traced ``ddrs run`` into the
per-layer figures printed by ``run.py --trace 1``.
"""

import contextlib
import importlib
import time


def _rounds(args, kwargs):
    """Gossip rounds requested by ``mix(W, t, X)``."""
    return kwargs["t"] if "t" in kwargs else args[1]


# (module, attribute, span name, note taken from the arguments).  A dotted
# attribute names a method on a class.  Functions are wrapped where the
# caller looks them up, so ``ddrs.algorithms.mix`` times the solver's gossip
# and ``ddrs.metrics.mix`` the monitor's.
TARGETS = (
    ("ddrs.cli", "run_experiment", "harness.run_experiment", None),
    ("ddrs.harness", "build_run", "harness.build_run", None),
    ("ddrs.cli", "write_records", "harness.write_records", None),
    ("ddrs.harness", "gen_synthetic", "problems.gen_synthetic", None),
    ("ddrs.problems", "Dataset.instances", "problems.instances", None),
    ("ddrs.problems", "DPCAInstance.prox", "problems.prox", None),
    ("ddrs.problems", "DPCAInstance.prox_inexact", "problems.prox_inexact", None),
    ("ddrs.problems", "DPCAInstance.egrad", "problems.egrad", None),
    ("ddrs.algorithms", "mix", "network.mix", _rounds),
    ("ddrs.metrics", "mix", "network.mix", _rounds),
    ("ddrs.algorithms", "project_stiefel", "manifold.project_stiefel", None),
    ("ddrs.metrics", "project_stiefel", "manifold.project_stiefel", None),
    ("ddrs.metrics", "tube_distance", "manifold.tube_distance", None),
    ("ddrs.harness", "subspace_distance", "manifold.subspace_distance", None),
    ("ddrs.harness", "ddrs_step", "algorithms.step", None),
    ("ddrs.harness", "iddrs_step", "algorithms.step", None),
    ("ddrs.harness", "consensus_and_stationarity",
     "metrics.consensus_and_stationarity", None),
    ("ddrs.harness", "objective_at_mean", "metrics.objective_at_mean", None),
    ("ddrs.harness", "dre_value", "metrics.dre_value", None),
    ("ddrs.harness", "neighborhood_report", "metrics.neighborhood_report", None),
    ("ddrs.harness", "induced_mean", "metrics.induced_mean", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped so each call records one span."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent,
                              note(args, kwargs) if note else None)

        traced.__wrapped__ = fn
        return traced


def _resolve(module_name, attr):
    """``(owner, name)`` for a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


@contextlib.contextmanager
def installed(tracer, targets=TARGETS):
    """
    Wrap every resolvable target for the duration of the block.

    Yields the list of targets that could not be found; their span names
    report zero calls.  Originals are restored on exit, in reverse order,
    even when the block raises.
    """
    missing = []
    restore = []
    try:
        for module_name, attr, span_name, note in targets:
            found = _resolve(module_name, attr)
            if found is None:
                missing.append("%s.%s" % (module_name, attr))
                continue
            owner, name = found
            # An inherited method has no entry of its own; restoring then
            # means deleting the wrapper again.
            own = owner.__dict__.get(name)
            setattr(owner, name, tracer.wrap(span_name, getattr(owner, name), note))
            restore.append((owner, name, own))
        yield missing
    finally:
        for owner, name, own in reversed(restore):
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


def covered_ns(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """
    Self time of every span, in ns.

    A span's self time is its duration minus the part of its interval that
    its direct children cover.
    """
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_ns(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def _ancestor_names(spans, idx):
    names = []
    parent = spans[idx][3]
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names


def _site(spans, idx):
    """'solver' under a step, 'monitor' under a metrics oracle, else None."""
    for name in _ancestor_names(spans, idx):
        if name == "algorithms.step":
            return "solver"
        if name.startswith("metrics."):
            return "monitor"
    return None


def _is_monitor(name):
    return name.startswith("metrics.") or name == "manifold.subspace_distance"


def layer_metrics(spans, d, r, two_edges):
    """
    Per-layer figures of one traced run.

    Per-iteration counts use the loop window, from the start of the first
    step to the end of the last step or monitoring call, so set-up and the
    initial record are left out.  ``d``, ``r`` and ``two_edges`` (2|E|, the
    directed links of the graph) size the computed byte figures.
    """
    steps = [s for s in spans if s[0] == "algorithms.step"]
    iters = len(steps)
    if iters:
        lo = min(s[1] for s in steps)
        hi = max(s[2] for s in spans
                 if s[1] >= lo and (s[0] == "algorithms.step" or _is_monitor(s[0])))
    else:
        lo = hi = 0
    loop_ns = hi - lo
    in_loop = [i for i, s in enumerate(spans) if lo <= s[1] and s[2] <= hi]
    selfs = self_times(spans)

    def loop_calls(name, site=None):
        return [i for i in in_loop if spans[i][0] == name
                and (site is None or _site(spans, i) == site)]

    def per_iter(idxs):
        return len(idxs) / iters if iters else 0.0

    def us_per_call(idxs):
        if not idxs:
            return 0.0
        return sum(spans[i][2] - spans[i][1] for i in idxs) / len(idxs) / 1e3

    def total_s(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name) / 1e9

    out = {}
    prox = loop_calls("problems.prox")
    prox_us = us_per_call(prox)
    out["problems.prox.calls_per_iter"] = per_iter(prox)
    out["problems.prox.us_per_call"] = prox_us
    # A triangular solve pair reads the d x d factor once and the d x r
    # right-hand side and solution once each; computed, not measured.
    prox_bytes = 8.0 * (d * d + 2 * d * r)
    out["problems.prox.gbps_computed"] = prox_bytes / (prox_us * 1e3) if prox_us else 0.0
    inexact = loop_calls("problems.prox_inexact")
    inexact_set = set(inexact)
    fallbacks = [i for i in prox if spans[i][3] in inexact_set]
    out["problems.prox_inexact.calls_per_iter"] = per_iter(inexact)
    out["problems.prox_inexact.us_per_call"] = us_per_call(inexact)
    out["problems.prox_inexact.fallback_frac"] = (
        len(fallbacks) / len(inexact) if inexact else 0.0)
    out["problems.egrad.calls_per_iter"] = per_iter(loop_calls("problems.egrad"))
    out["problems.gen_synthetic.s"] = total_s("problems.gen_synthetic")
    out["problems.instances.s"] = total_s("problems.instances")

    solver_mix = loop_calls("network.mix", "solver")
    out["network.mix.solver_calls_per_iter"] = per_iter(solver_mix)
    out["network.mix.monitor_calls_per_iter"] = per_iter(
        loop_calls("network.mix", "monitor"))
    out["network.mix.us_per_call"] = us_per_call(loop_calls("network.mix"))
    rounds = sum(spans[i][4] for i in solver_mix)
    out["network.bytes_per_iter"] = (
        rounds * two_edges * d * r * 8.0 / iters if iters else 0.0)

    out["manifold.project_stiefel.solver_calls_per_iter"] = per_iter(
        loop_calls("manifold.project_stiefel", "solver"))
    out["manifold.project_stiefel.monitor_calls_per_iter"] = per_iter(
        loop_calls("manifold.project_stiefel", "monitor"))
    out["manifold.project_stiefel.us_per_call"] = us_per_call(
        loop_calls("manifold.project_stiefel"))
    out["manifold.tube_distance.calls_per_iter"] = per_iter(
        loop_calls("manifold.tube_distance"))

    step_idx = loop_calls("algorithms.step")
    out["algorithms.step.us_per_call"] = us_per_call(step_idx)
    out["algorithms.step.self_us_per_call"] = (
        sum(selfs[i] for i in step_idx) / len(step_idx) / 1e3 if step_idx else 0.0)

    for oracle in ("consensus_and_stationarity", "objective_at_mean",
                   "dre_value", "neighborhood_report"):
        out["metrics.%s.us_per_call" % oracle] = us_per_call(
            loop_calls("metrics." + oracle))
    monitor_top = [i for i in in_loop if _is_monitor(spans[i][0])
                   and not any(_is_monitor(a) for a in _ancestor_names(spans, i))]
    monitor_ns = covered_ns([spans[i][1:3] for i in monitor_top], lo, hi)
    out["metrics.monitor_share"] = monitor_ns / loop_ns if loop_ns else 0.0

    out["harness.write_records.ms"] = total_s("harness.write_records") * 1e3

    # Spans directly under run_experiment inside the loop: the step and the
    # monitoring calls.  What they leave uncovered is run_experiment's glue.
    runs = {i for i, s in enumerate(spans) if s[0] == "harness.run_experiment"}
    top = [spans[i][1:3] for i in in_loop if spans[i][3] in runs or spans[i][3] < 0]
    out["trace.unaccounted_share"] = (
        1.0 - covered_ns(top, lo, hi) / loop_ns if loop_ns else 0.0)
    return out
