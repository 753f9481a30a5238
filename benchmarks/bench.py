"""
Benchmark loop, metrics and report; ``run.py`` is the entry point.
"""

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import ddrs
import ddrs.cli
import ddrs.harness

import checks
import machine
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("iter_ms", "ms"),
    ("time_to_target_s", "s"),
    ("iters_to_target", "count"),
    ("peak_rss_mb", "MB"),
)

# Unit of a per-layer metric, by the last part of its name.
PER_LAYER_UNITS = {
    "gbps_computed": "GB/s", "fallback_frac": "ratio", "s": "s", "ms": "ms",
    "bytes_per_iter": "bytes", "monitor_share": "ratio", "overhead_frac": "ratio",
    "unaccounted_share": "ratio",
}


def per_layer_unit(name):
    tail = name.rsplit(".", 1)[-1]
    if tail.endswith("calls_per_iter"):
        return "count"
    if tail.endswith("us_per_call"):
        return "us"
    return PER_LAYER_UNITS[tail]


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchmarks/run.py",
                                     description="The ddrs benchmark.")
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset of the graph seed; 0 (default) runs the preset")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print per-layer metrics from a traced run")
    parser.add_argument("--spans", help="write the last traced run's spans "
                                        "here as JSON lines")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


@contextlib.contextmanager
def _patched(owner, name, make_wrapper):
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def run_once(workload, seed, repeat, workdir, tracer=None):
    """
    One ``ddrs run`` of one instance; returns its measurements and checks.

    The in-memory records and the set-up come from thin wrappers around
    ``run_experiment`` and ``build_run``; both time a single call per run.
    """
    cfg_path = workdir / "instance.cfg"
    out_path = workdir / "records.csv"
    cfg_path.write_text(workloads.instance_overrides(workload, seed), encoding="utf-8")
    seen = {}

    def capture_run(fn):
        def wrapper(config):
            seen["records"], seen["summary"] = result = fn(config)
            return result
        return wrapper

    def capture_setup(fn):
        def wrapper(config):
            start = time.perf_counter()
            seen["setup"] = setup = fn(config)
            seen["setup_s"] = time.perf_counter() - start
            return setup
        return wrapper

    argv = ["run", "--preset", workloads.PRESET, "--config", str(cfg_path),
            "--out", str(out_path)]
    error = None
    trace = tracing.installed(tracer) if tracer else contextlib.nullcontext([])
    with _patched(ddrs.cli, "run_experiment", capture_run), \
            _patched(ddrs.harness, "build_run", capture_setup), \
            trace as missing, contextlib.redirect_stdout(io.StringIO()):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = ddrs.cli.main(argv)
        except Exception:  # a crash is a failed repeat, not a failed benchmark
            code = None
            error = traceback.format_exc(limit=3)
        run_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start

    records, summary = seen.get("records"), seen.get("summary")
    problems = checks.check_run(code, summary, records, out_path)
    if error:
        problems.append(error)
    result = {"repeat": repeat, "run_s": run_s, "cpu_s": cpu_s,
              "setup_s": seen.get("setup_s"),
              "problems": problems, "traced": tracer is not None,
              "missing_targets": missing}
    if records and summary and summary.get("iterations"):
        last = records[-1]
        hit = checks.first_target_record(records)
        # An instance that never meets the targets counts at its last record.
        hit = hit or last
        result.update(
            iterations=summary["iterations"],
            iter_ms=last.wall_ns / summary["iterations"] / 1e6,
            time_to_target_s=hit.wall_ns / 1e9,
            iters_to_target=hit.k,
        )
    setup = seen.get("setup")
    if setup is not None:
        W = setup.W.W
        result["two_edges"] = int((W != 0).sum() - (W.diagonal() != 0).sum())
    return result


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def spread_line(name, unit, values):
    """Median, sample count and the highest percentile with ten samples above."""
    values = sorted(v for v in values if v is not None)
    if not values:
        return "%-20s (no samples)" % name
    text = "%-20s %.6g %s  (median of %d" % (name, statistics.median(values), unit,
                                             len(values))
    if len(values) >= 11:
        pct = math.floor(100.0 * (1.0 - 10.0 / len(values)))
        at = values[max(0, math.ceil(pct / 100.0 * len(values)) - 1)]
        text += "; p%d %.6g" % (pct, at)
    return text + "; min %.6g, max %.6g)" % (values[0], values[-1])


def workload_facts(config, llc):
    """Shapes and the computed working set of the solver loop."""
    p = config.problem
    gram = p.n * p.d * p.d * 8
    factors = gram if config.algorithm.kind == "ddrs" else 0
    iterates = 5 * p.n * p.d * p.r * 8
    working = gram + factors + iterates
    return {
        "n": p.n, "d": p.d, "r": p.r, "t": config.t,
        "algorithm": config.algorithm.kind, "max_iters": config.max_iters,
        "log_every": config.log_every,
        "working_set_bytes": working,
        "working_set_note": "Gram matrices + Cholesky factors (exact prox only) "
                            "+ five (n, d, r) iterate stacks, computed from sizes",
        "last_level_cache_bytes": llc,
        "cache_resident": bool(llc) and working <= llc,
    }


def bench_workload(workload, args, workdir):
    """Closed loop over repeats of one workload; returns the result dict."""
    repeats, traced_layers = [], []
    last_spans = None
    config = workloads.instance_config(workload, args.seed)
    start = time.perf_counter()
    repeat = 0
    while True:
        repeats.append(run_once(workload, args.seed, repeat, workdir))
        if args.trace:
            tracer = tracing.Tracer()
            traced = run_once(workload, args.seed, repeat, workdir, tracer)
            repeats.append(traced)
            traced_layers.append(tracing.layer_metrics(
                tracer.spans, config.problem.d, config.problem.r,
                traced.get("two_edges", 0)))
            last_spans = tracer.spans
        repeat += 1
        if time.perf_counter() - start >= args.seconds:
            break

    plain = [r for r in repeats if not r["traced"]]
    failed = sum(1 for r in repeats if r["problems"])
    if args.trace:
        metrics = {name: median([m[name] for m in traced_layers])
                   for name in traced_layers[0]}
        traced_run = median([r["run_s"] for r in repeats if r["traced"]])
        metrics["trace.overhead_frac"] = traced_run / median(
            [r["run_s"] for r in plain]) - 1.0
        metrics = dict(sorted(metrics.items()))
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {name: median([r.get(name) for r in plain])
                   for name, _ in END_TO_END if name != "peak_rss_mb"}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "repeats": repeats,
        "failed": failed,
        "attempted": len(repeats),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "spans": last_spans,
    }


def report(result, facts_line):
    """Human-readable lines for one workload's result."""
    name = result["workload"]
    print("== %s  seed %d  trace %d  %s" % (
        name, result["seed"], result["trace"], result["loop"]))
    print("machine %s" % facts_line)
    print("workload %s" % json.dumps(result["facts"], sort_keys=True))
    for r in result["repeats"]:
        print("  repeat %d%s: run_s %.4f cpu_s %.4f iters_to_target %s %s" % (
            r["repeat"], " traced" if r["traced"] else "", r["run_s"], r["cpu_s"],
            r.get("iters_to_target"), "; ".join(r["problems"]) or "ok"))
        if r["missing_targets"]:
            print("    not traced (gone from the library): %s"
                  % ", ".join(r["missing_targets"]))
    plain = [r for r in result["repeats"] if not r["traced"]]
    if result["trace"]:
        for metric, entry in result["metrics"].items():
            note = ("  (computed from array sizes; working set %s the last-level cache)"
                    % ("inside" if result["facts"]["cache_resident"] else "exceeds")
                    if metric.endswith("gbps_computed") else "")
            print("%-48s %.6g %s%s" % (metric, entry["value"], entry["unit"], note))
    else:
        for metric, unit in END_TO_END:
            if metric == "peak_rss_mb":
                print("%-20s %.6g %s  (process high-water mark)" % (
                    metric, result["metrics"][metric]["value"], unit))
            else:
                print(spread_line(metric, unit, [r.get(metric) for r in plain]))
    print("failed_frac          %.6g  (%d of %d runs failed the output checks)" % (
        result["failed"] / result["attempted"], result["failed"], result["attempted"]))


def main(argv=None):
    args = parse_args(argv)
    if Path(ddrs.__file__).resolve().parent != (SRC / "ddrs").resolve():
        print("error: imported ddrs from %s, not from %s" % (ddrs.__file__, SRC),
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print("error: unknown workload %s; known: %s" % (
            unknown[0], ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    results = []
    try:
        for name in names:
            results.append(bench_workload(workloads.WORKLOADS[name], args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()

    facts = machine.facts()
    llc = facts["l3_bytes"] or facts["l2_bytes"]
    for result in results:
        config = workloads.instance_config(workloads.WORKLOADS[result["workload"]],
                                           args.seed)
        result["facts"] = workload_facts(config, llc)
        report(result, json.dumps(facts, sort_keys=True))
        print(json.dumps({"correct": result["failed"] == 0,
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": result["metrics"]}))

    spans = results[-1]["spans"]
    if args.spans and spans is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for name, start, end, parent, note in spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "note": note}) + "\n")
    if len(results) > 1:
        merged = {"%s.%s" % (r["workload"], k): v
                  for r in results for k, v in r["metrics"].items()}
        print(json.dumps({"correct": all(r["failed"] == 0 for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": merged}))
    return 0
