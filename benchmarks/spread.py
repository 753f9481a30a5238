"""
Run the benchmark over several seeds and report each metric's spread.

Each run is a fresh ``run.py`` process, one after another.  For every
workload and metric it prints the median of the runs and the distance
between the first and third quartile as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.

Usage, from the repository root::

    python3 benchmarks/spread.py [--workload NAME ...] [--seeds 1-10]
                                 [--seconds S] [--trace 0|1] [--out FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180 + 3 * seconds)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (cmd, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["machine"] = next((json.loads(line.split(" ", 1)[1]) for line in lines
                              if line.startswith("machine ")), None)
    return result


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="benchmarks/spread.py")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    results = {}
    for name in names:
        runs = results[name] = []
        for seed in seeds:
            runs.append(run(name, seed, args.seconds, args.trace))
            print("  seed %d: %s" % (seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in runs[-1]["metrics"].items())),
                flush=True)
        print("== %s  seeds %s  correct %s  failed %d of %d" % (
            name, args.seeds, all(r["correct"] for r in runs),
            sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            if len(values) < 2 or statistics.median(values) == 0:
                print("  %-48s median %.6g %s" % (metric, statistics.median(values), unit))
                continue
            med, spread = quartile_spread(values)
            bound = bounds.get(metric) if not args.trace else None
            verdict = "" if bound is None else "  bound %.3g%s" % (
                bound, "  ABOVE BOUND/3" if spread > bound / 3 else "")
            print("  %-48s median %.6g %s  IQR/median %.4f%s" % (
                metric, med, unit, spread, verdict))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
                       "runs": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
