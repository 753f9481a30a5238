"""
Command line driver.

Subcommands: ``run`` executes a configured experiment and writes record and
summary files; ``advise`` prints the certified-regime parameters for a
configuration; ``validate-graph`` prints the mixing-matrix checks and the
spectral gap.  Exit codes: 0 success, 1 configuration error, 2 a run whose
status is not ``ok`` (diverged or failed).
"""

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    parse_config,
    preset_text,
    run_experiment,
    write_records,
    emit_plotdata,
    _build_graph,
    build_run,
    start_run,
)
from .network import NotConnectedError, metropolis_weights
from .problems import BadMagicError, DimMismatchError, TruncatedFileError


def _load_config(args):
    chunks = []
    if getattr(args, "preset", None):
        chunks.append(preset_text(args.preset))
    if getattr(args, "config", None):
        chunks.append(Path(args.config).read_text(encoding="utf-8"))
    if not chunks:
        raise ConfigError("provide --config and/or --preset")
    return parse_config("\n".join(chunks))


def _cmd_run(args):
    config = _load_config(args)
    records, summary = run_experiment(config)
    out = args.out or config.out or "records.%s" % args.format
    write_records(records, out, fmt=args.format)
    stem = str(Path(out).with_suffix(""))
    summary_path = stem + ".summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=str)
    if args.emit_plotdata:
        for path in emit_plotdata(records, stem):
            print("wrote %s" % path)
    print("wrote %s and %s" % (out, summary_path))
    for message in summary.get("warnings") or ():
        print("warning: %s" % message, file=sys.stderr)
    final = summary["final"] or {}
    print("status=%s iterations=%s consensus_sq=%s stationarity_sq=%s" % (
        summary["status"], summary["iterations"],
        final.get("consensus_sq"), final.get("stationarity_sq")))
    return 0 if summary["status"] == "ok" else 2


def _cmd_advise(args):
    config = _load_config(args)
    setup = build_run(config)
    _, advice = start_run(config, setup)
    alpha = setup.params.alpha
    print("L = %.6g   sigma2 = %.6g   n = %d" % (setup.L, setup.W.sigma2,
                                                setup.dataset.n))
    print("delta1 = %.10g" % advice.delta1)
    print("delta2 = %.10g" % advice.delta2)
    print("delta3 = %.10g" % advice.delta3)
    print("alpha_max = %.10g   (configured alpha = %.10g)" % (advice.alpha_max, alpha))
    print("t_min = %d   clauses = %s   (configured t = %d)" % (
        advice.t_min, advice.t_clauses, config.t))
    print("C1 = %.6g   C2 = %s   C3 = %.6g" % (advice.c1, advice.c2, advice.c3))
    print("C4_shape = %s   C5_shape = %s" % (advice.c4_shape, advice.c5_shape))
    for note in advice.notes:
        print("note: %s" % note)
    if alpha > advice.alpha_max:
        print("warning: configured alpha exceeds the certified bound")
    if config.t < advice.t_min:
        print("warning: configured t is below the certified minimum")
    return 0


def _cmd_validate_graph(args):
    config = _load_config(args)
    graph = _build_graph(config)
    W = metropolis_weights(graph)
    M = W.W
    sym = float(abs(M - M.T).max())
    rows = float(abs(M.sum(axis=1) - 1.0).max())
    neg = float(M.min())
    print("n = %d   edges = %d" % (graph.n, len(graph.edges)))
    print("symmetry residual   = %.3e" % sym)
    print("row-sum residual    = %.3e" % rows)
    print("smallest entry      = %.3e" % neg)
    print("off-diagonal support matches edge set: yes")
    print("sigma2 = %.12g" % W.sigma2)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddrs",
        description="Decentralized Douglas-Rachford splitting experiments "
                    "on the Stiefel manifold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a configured experiment")
    run_p.add_argument("--config", help="path to a key=value config file")
    run_p.add_argument("--preset", help="named preset (overridden by --config keys)")
    run_p.add_argument("--out", help="records output path")
    run_p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    run_p.add_argument("--emit-plotdata", action="store_true",
                       help="also write per-metric two-column files")
    run_p.set_defaults(func=_cmd_run)

    advise_p = sub.add_parser("advise", help="print certified parameters")
    advise_p.add_argument("--config", help="path to a key=value config file")
    advise_p.add_argument("--preset", help="named preset")
    advise_p.set_defaults(func=_cmd_advise)

    vg_p = sub.add_parser("validate-graph", help="print mixing-matrix checks")
    vg_p.add_argument("--config", help="path to a key=value config file")
    vg_p.add_argument("--preset", help="named preset")
    vg_p.set_defaults(func=_cmd_validate_graph)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, NotConnectedError, OSError,
            BadMagicError, TruncatedFileError, DimMismatchError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
