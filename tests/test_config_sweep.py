"""
No configuration ends in a traceback.

Configs drawn over 13 keys, with the problem's n, d, r and m_per at and
around their limits, a missing IDX path and tiny IDX files, go through
``cli.main`` as ``run``, ``advise`` and ``validate-graph``.  Each command
returns 0, 1 or 2, and a run's summary holds a documented status that its
exit code agrees with.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import ddrs.cli as cli

from helpers import idx_bytes

STATUSES = ("ok", "diverged", "failed")

# Values each key takes in a config, and values of it that break one: out
# of range, of the wrong kind, or None, which leaves it unset.  max_iters is
# always set, as its default of 500 would make a case slow.
_VALID = {
    "problem.kind": st.sampled_from(["synthetic", "synthetic", "mnist"]),
    "problem.n": st.integers(2, 5),
    "problem.m_per": st.integers(1, 6),
    "problem.d": st.integers(2, 6),
    "problem.r": st.integers(1, 6),
    "problem.xi": st.sampled_from([1e-9, 0.5, 0.8, 0.999]),
    "graph.kind": st.sampled_from(["ring", "erdos_renyi", "complete"]),
    "graph.p": st.sampled_from([1e-6, 0.3, 1.0]),
    "algorithm.kind": st.sampled_from(["ddrs", "iddrs", "baseline_gt"]),
    "alpha": st.sampled_from([1e-12, 1e-3, 1.0, 1e3, 1e12, 1e17]),
    "t": st.integers(1, 3),
    "max_iters": st.integers(1, 3),
}
_BROKEN = {
    "problem.kind": ["image"],
    "problem.n": [0, 1],
    "problem.m_per": [0],
    "problem.d": [0, 1],
    "problem.r": [0],
    "problem.xi": [0.0, 1.0],
    "graph.kind": ["star"],
    "graph.p": [0.0, 1.5],
    "algorithm.kind": ["sgd"],
    "alpha": [0.0, -1.0, "inf", "nan", "fast"],
    "t": [0],
    "max_iters": [0],
}
_ONE_BROKEN = st.one_of(st.none(), st.sampled_from(sorted(_BROKEN)).flatmap(
    lambda key: st.tuples(st.just(key),
                          st.sampled_from(_BROKEN[key] + [None]))))
# The 13th key, problem.path: a file that does not exist, or (count, rows,
# cols, fill) of a tiny IDX file of images.
_IDX = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 24), st.integers(1, 3), st.integers(1, 3),
              st.sampled_from(["blank", "noise"])))


def _idx_file(directory, spec):
    path = Path(directory) / "images.idx"
    if spec is not None:
        count, rows, cols, fill = spec
        size = count * rows * cols
        pixels = (np.zeros(size, dtype=np.uint8) if fill == "blank" else
                  np.random.default_rng(size).integers(0, 256, size,
                                                       dtype=np.uint8))
        path.write_bytes(idx_bytes(0x00000803, (count, rows, cols),
                                   pixels.tobytes()))
    return path


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries(_VALID), _ONE_BROKEN, _IDX)
def test_no_configuration_ends_in_a_traceback(values, broken, idx):
    if broken is not None:
        values[broken[0]] = broken[1]
    with tempfile.TemporaryDirectory() as directory:
        values["problem.path"] = _idx_file(directory, idx)
        text = "".join("%s = %s\n" % item for item in values.items()
                       if item[1] is not None)
        config = Path(directory) / "cfg.txt"
        config.write_text(text)
        out = Path(directory) / "records.csv"
        codes = {}
        for command in ("run", "advise", "validate-graph"):
            argv = [command, "--config", str(config)]
            if command == "run":
                argv += ["--out", str(out)]
            codes[command] = _main(argv)
        assert set(codes.values()) <= {0, 1, 2}, (codes, text)
        summary = out.with_suffix(".summary.json")
        if summary.exists():
            status = json.loads(summary.read_text())["status"]
            assert status in STATUSES, text
            assert codes["run"] == (0 if status == "ok" else 2), text
        else:
            assert codes["run"] == 1, text
