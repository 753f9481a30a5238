"""
Command line driver.

Subcommands: ``run`` executes a configured experiment and writes record and
summary files; ``advise`` prints the certified-regime parameters for a
configuration; ``validate-graph`` prints the mixing-matrix checks and the
spectral gap.  A config file is read as UTF-8.  ``run`` and ``advise`` both
start the run with ``harness.start_run``, which judges the configuration,
and print each ConfigurationWarning it raised as a ``warning:`` line.  Exit
codes: 0 success, 1 configuration error (a config file that is not UTF-8,
and a ConfigurationWarning that a warnings filter makes an error, included)
or an output path that cannot be written, found before the run, 2 a run
whose status is not ``ok`` (diverged or failed).
"""

import argparse
import json
import sys
from pathlib import Path

from .algorithms import ConfigurationWarning
from .harness import (
    ConfigError,
    configuration_warnings,
    parse_config,
    preset,
    run_experiment,
    write_records,
    _build_graph,
    build_run,
    start_run,
)
from .network import NotConnectedError, metropolis_weights
from .problems import BadMagicError, DimMismatchError, TruncatedFileError


def _load_config(args):
    try:
        # utf-8-sig drops the byte-order mark some editors write first.
        text = (Path(args.config).read_text(encoding="utf-8-sig")
                if args.config else None)
    except UnicodeDecodeError as exc:
        raise ConfigError("%s is not UTF-8: byte 0x%02x at offset %d" % (
            args.config, exc.object[exc.start], exc.start)) from None
    if args.preset:
        return preset(args.preset, text or "")
    if text is None:
        raise ConfigError("provide --config and/or --preset")
    return parse_config(text)


def _cmd_run(args):
    config = _load_config(args)
    out = args.out or "records.csv"
    summary_path = str(Path(out).with_suffix("")) + ".summary.json"
    # Fail before the run, not after it, where the files cannot be written.
    if not Path(out).parent.is_dir():
        raise FileNotFoundError("no directory %s for --out" % Path(out).parent)
    for path in (out, summary_path):
        if Path(path).is_dir():
            raise IsADirectoryError("%s is a directory, not a file to write"
                                    % path)
    records, summary = run_experiment(config)
    write_records(records, out)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
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
    with configuration_warnings() as messages:
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
    # The baseline is not a splitting method; its run reports no ratios.
    if config.algorithm.kind != "baseline_gt":
        if alpha > advice.alpha_max:
            print("warning: configured alpha exceeds the certified bound")
        if config.t < advice.t_min:
            print("warning: configured t is below the certified minimum")
    for message in messages:
        print("warning: %s" % message)
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
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--config", help="path to a key=value config file")
    source.add_argument("--preset", help="named preset (overridden by --config keys)")

    run_p = sub.add_parser("run", parents=[source],
                           help="execute a configured experiment")
    run_p.add_argument("--out", help="records output path (default: records.csv)")
    run_p.set_defaults(func=_cmd_run)

    advise_p = sub.add_parser("advise", parents=[source],
                              help="print certified parameters")
    advise_p.set_defaults(func=_cmd_advise)

    vg_p = sub.add_parser("validate-graph", parents=[source],
                          help="print mixing-matrix checks")
    vg_p.set_defaults(func=_cmd_validate_graph)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConfigurationWarning, NotConnectedError, OSError,
            BadMagicError, TruncatedFileError, DimMismatchError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
