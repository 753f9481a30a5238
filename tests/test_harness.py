import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import ddrs.cli as cli
import ddrs.harness as harness
import ddrs.metrics as metrics
from ddrs.algorithms import (
    AgentStack,
    ConfigurationWarning,
    ddrs_step,
    epsilon_schedule,
)
from ddrs.harness import (
    ConfigError,
    ConfigTypeError,
    MissingRequiredError,
    UnknownKeyError,
    _build_dataset,
    parse_config,
    preset,
    preset_text,
    read_records,
    run_experiment,
    write_records,
)
from ddrs.manifold import RankDeficientError
from ddrs.problems import DPCAInstance, SolverStallError
from ddrs.metrics import (
    RECORD_FIELDS,
    VIOLATION_KINDS,
    IterationRecord,
    dre_value,
    neighborhood_report,
)
from ddrs.network import mix

from helpers import idx_bytes, pixel_like_images


MINIMAL = """
problem.kind = synthetic
graph.kind = ring
algorithm.kind = ddrs
alpha = 1.0
"""

TINY = """
problem.kind = synthetic
problem.n = 4
problem.m_per = 50
problem.d = 6
problem.r = 2
problem.seed = 5
graph.kind = erdos_renyi
graph.p = 0.8
graph.seed = 2
algorithm.kind = ddrs
alpha = 2.0
t = 2
max_iters = 30
master_seed = 3
"""


# Every config key with its type and default (None: unset), as the schema
# table listed them before the config dataclasses became the only schema.
CONFIG_TABLE = {
    "problem.kind": (str, None),
    "problem.n": (int, 8),
    "problem.m_per": (int, 1000),
    "problem.d": (int, 10),
    "problem.r": (int, 5),
    "problem.xi": (float, 0.8),
    "problem.seed": (int, None),
    "problem.path": (str, None),
    "graph.kind": (str, None),
    "graph.p": (float, None),
    "graph.seed": (int, None),
    "algorithm.kind": (str, None),
    "algorithm.eps0": (float, 1e-6),
    "algorithm.rho": (float, 0.9),
    "alpha": (float, None),
    "beta_hat": (float, None),
    "t": (int, 1),
    "max_iters": (int, 500),
    "log_every": (int, 1),
    "out": (str, None),
    "master_seed": (int, 0),
}

# key -> (text of a valid value, the value it parses to)
ROUND_TRIPS = {
    "problem.kind": ("synthetic", "synthetic"),
    "problem.n": ("3", 3),
    "problem.m_per": ("7", 7),
    "problem.d": ("12", 12),
    "problem.r": ("4", 4),
    "problem.xi": ("0.25", 0.25),
    "problem.seed": ("11", 11),
    "problem.path": ("images.idx", "images.idx"),
    "graph.kind": ("complete", "complete"),
    "graph.p": ("0.5", 0.5),
    "graph.seed": ("13", 13),
    "algorithm.kind": ("iddrs", "iddrs"),
    "algorithm.eps0": ("1e-3", 1e-3),
    "algorithm.rho": ("0.5", 0.5),
    "alpha": ("2.5", 2.5),
    "beta_hat": ("6500", 6500.0),
    "t": ("3", 3),
    "max_iters": ("9", 9),
    "log_every": ("2", 2),
    "out": ("runs/x.csv", "runs/x.csv"),
    "master_seed": ("21", 21),
}


class TestConfigTable:
    def test_the_dataclasses_declare_each_key_type_and_default(self):
        derived = {key: (f.type, f.default) for key, f in harness._KEYS.items()}
        assert derived == CONFIG_TABLE

    def test_unset_keys_take_their_defaults(self):
        cfg = parse_config(MINIMAL)
        set_keys = {"problem.kind", "graph.kind", "algorithm.kind", "alpha"}
        for key, (_, default) in CONFIG_TABLE.items():
            if key not in set_keys:
                assert harness._at(cfg, key) == default, key

    @pytest.mark.parametrize("key", sorted(ROUND_TRIPS))
    def test_round_trip(self, key):
        text, value = ROUND_TRIPS[key]
        base = MINIMAL.replace("alpha = 1.0", "") if key == "beta_hat" else MINIMAL
        got = harness._at(parse_config(base + "%s = %s\n" % (key, text)), key)
        assert got == value and type(got) is CONFIG_TABLE[key][0]
        if CONFIG_TABLE[key][0] is not str:
            name = CONFIG_TABLE[key][0].__name__
            with pytest.raises(ConfigTypeError) as exc:
                parse_config(MINIMAL + "%s = many\n" % key)
            assert str(exc.value) == ("line 6: key %r expects %s, got 'many'"
                                      % (key, name))


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.problem.n == 8
        assert cfg.problem.d == 10
        assert cfg.problem.r == 5
        assert cfg.problem.xi == 0.8
        assert cfg.t == 1
        assert cfg.max_iters == 500
        assert cfg.master_seed == 0

    def test_alpha_beta_conflict(self):
        with pytest.raises(MissingRequiredError, match="exactly one"):
            parse_config(MINIMAL + "beta_hat = 5\n")

    def test_neither_alpha_nor_beta(self):
        text = MINIMAL.replace("alpha = 1.0", "")
        with pytest.raises(MissingRequiredError):
            parse_config(text)

    def test_unknown_key_with_line(self):
        with pytest.raises(UnknownKeyError, match="line 6.*alhpa"):
            parse_config(MINIMAL + "alhpa = 1.0\n")

    def test_type_error_with_line(self):
        with pytest.raises(ConfigTypeError, match="line"):
            parse_config(MINIMAL.replace("alpha = 1.0", "alpha = fast"))

    def test_missing_problem_kind(self):
        with pytest.raises(MissingRequiredError, match="problem.kind"):
            parse_config("graph.kind = ring\nalgorithm.kind = ddrs\nalpha = 1\n")

    def test_mnist_requires_path(self):
        text = MINIMAL.replace("problem.kind = synthetic",
                               "problem.kind = mnist")
        with pytest.raises(MissingRequiredError, match="path"):
            parse_config(text)

    def test_er_requires_p(self):
        text = MINIMAL.replace("graph.kind = ring",
                               "graph.kind = erdos_renyi")
        with pytest.raises(MissingRequiredError, match="graph.p"):
            parse_config(text)

    def test_comments_and_overrides(self):
        cfg = parse_config(MINIMAL + "# comment line\nt = 4\nt = 7\n")
        assert cfg.t == 7

    def test_idx_data_fixes_the_width(self):
        # problem.d does not apply to an IDX file, so r and m_per pass here.
        cfg = preset("mnist-er06", "problem.r = 20\nproblem.m_per = 1\n")
        assert cfg.problem.r == 20 and cfg.problem.m_per == 1

    def test_bad_kind_value(self):
        with pytest.raises(ConfigTypeError):
            parse_config(MINIMAL.replace("ring", "star"))


class TestPresets:
    def test_er06_values(self):
        cfg = preset("synthetic-er06")
        assert cfg.problem.n == 8
        assert cfg.problem.m_per == 1000
        assert cfg.problem.d == 10
        assert cfg.problem.r == 5
        assert cfg.problem.xi == 0.8
        assert cfg.graph.kind == "erdos_renyi"
        assert cfg.graph.p == 0.6
        assert cfg.t == 10

    def test_t_variants(self):
        assert preset("synthetic-er06-t1").t == 1
        assert preset("synthetic-er06-t10").t == 10
        assert preset("synthetic-ring-t1").graph.kind == "ring"
        assert preset("synthetic-er03-t10").graph.p == 0.3

    def test_mnist_preset(self):
        cfg = preset("mnist-er06")
        assert cfg.problem.kind == "mnist"
        assert cfg.problem.n == 8
        assert cfg.problem.r == 5

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_text("synthetic-er99")

    def test_override_mechanism(self):
        cfg = preset("synthetic-er06", overrides="algorithm.kind = iddrs\n")
        assert cfg.algorithm.kind == "iddrs"


class TestRecordIO:
    RECS = [
        IterationRecord(k=0, consensus_sq=0.25, stationarity_sq=1.0 / 3.0,
                        dre=-1.5, obj=2.0, ds=0.1, mu_sq_max=None, wall_ns=12),
        IterationRecord(k=1, consensus_sq=1e-17, stationarity_sq=0.0,
                        dre=None, obj=None, ds=None, mu_sq_max=3e-9,
                        wall_ns=999),
    ]

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records([], path, fmt="csv")
        assert path.read_text() == ",".join(RECORD_FIELDS) + "\n"

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records(self.RECS, path, fmt="csv")
        back = read_records(path)
        assert back == list(self.RECS)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records(self.RECS, path, fmt="jsonl")
        back = read_records(path)
        assert back == list(self.RECS)

    def test_jsonl_line_count(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records(self.RECS, path, fmt="jsonl")
        assert len(path.read_text().splitlines()) == 2

    def test_absent_cells_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records(self.RECS, path, fmt="csv")
        row = path.read_text().splitlines()[2].split(",")
        assert row[RECORD_FIELDS.index("dre")] == ""
        assert row[RECORD_FIELDS.index("ds")] == ""

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_records([], tmp_path / "x", fmt="xml")

    @pytest.mark.parametrize("cells", [5, len(RECORD_FIELDS) + 1])
    def test_row_with_the_wrong_cell_count_names_its_line(self, tmp_path,
                                                         cells):
        path = tmp_path / "r.csv"
        write_records(self.RECS, path, fmt="csv")
        header, first, second = path.read_text().splitlines()
        row = (second.split(",") + ["7"])[:cells]
        path.write_text("\n".join([header, first, ",".join(row)]) + "\n")
        with pytest.raises(ValueError, match="line 3: %d cells" % cells):
            read_records(path)

    def test_empty_csv_file_is_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_records(path)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_format_is_read_from_the_content(self, tmp_path, fmt):
        path = tmp_path / ("r.csv" if fmt == "jsonl" else "r.jsonl")
        write_records(self.RECS, path, fmt=fmt)
        assert read_records(path) == list(self.RECS)

    def test_an_empty_file_takes_its_format_from_the_suffix(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("")
        assert read_records(path) == []


def _strip_wall(records):
    return [(r.k, r.consensus_sq, r.stationarity_sq, r.dre, r.obj, r.ds,
             r.mu_sq_max) for r in records]


class TestRunExperiment:
    def test_deterministic_repeat(self):
        cfg = parse_config(TINY)
        rec_a, sum_a = run_experiment(cfg)
        rec_b, sum_b = run_experiment(cfg)
        # Bit-identical apart from wall-clock times.
        assert _strip_wall(rec_a) == _strip_wall(rec_b)
        assert sum_a["status"] == sum_b["status"] == "ok"

    def test_seed_isolation(self):
        base = parse_config(TINY)
        other = parse_config(TINY.replace("graph.seed = 2", "graph.seed = 9"))
        blocks_a = _build_dataset(base).blocks
        blocks_b = _build_dataset(other).blocks
        for a, b in zip(blocks_a, blocks_b):
            assert np.array_equal(a, b)

    def test_summary_embeds_provenance(self):
        cfg = parse_config(TINY)
        _, summary = run_experiment(cfg)
        assert summary["config"]["master_seed"] == 3
        assert summary["config"]["problem"]["kind"] == "synthetic"
        assert "delta1" in summary["advice"]
        assert summary["neighborhood_violations"] is not None
        # Effective seeds are recorded even when derived from master_seed.
        assert summary["resolved_seeds"]["data"] == 5
        assert summary["resolved_seeds"]["graph"] == 2
        assert isinstance(summary["resolved_seeds"]["init"], int)

    def test_log_every_subsampling(self):
        cfg = parse_config(TINY + "log_every = 10\n")
        records, _ = run_experiment(cfg)
        assert [r.k for r in records] == [0, 10, 20, 30]

    def test_records_monotone_k(self):
        records, _ = run_experiment(parse_config(TINY))
        ks = [r.k for r in records]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)

    def test_iddrs_records_mu(self):
        cfg = parse_config(TINY.replace("algorithm.kind = ddrs",
                                        "algorithm.kind = iddrs"))
        records, summary = run_experiment(cfg)
        assert summary["status"] == "ok"
        assert all(r.mu_sq_max is not None for r in records if r.k > 0)

    @pytest.mark.parametrize("algo", ["ddrs", "iddrs"])
    def test_dre_reuses_only_an_exact_step_prox(self, monkeypatch, algo):
        # Exact steps pass their x, which must equal a recomputed prox
        # bitwise, and their start (x = s) recomputes.  iDDRS passes proxes
        # from its certified CG solves at every record, start included,
        # whose value is within 1e-10 relative of the exact recompute.
        calls = []

        def spy(s_blocks, problem, alpha, x_blocks=None):
            value = dre_value(s_blocks, problem, alpha, x_blocks)
            calls.append((x_blocks is not None, value,
                          dre_value(s_blocks, problem, alpha)))
            return value

        monkeypatch.setattr(harness, "dre_value", spy)
        cfg = parse_config(TINY.replace("algorithm.kind = ddrs",
                                        "algorithm.kind = %s" % algo)
                           + "log_every = 5\n")
        records, summary = run_experiment(cfg)
        assert summary["status"] == "ok"
        reused = [algo == "iddrs" or rec.k >= 1 for rec in records]
        assert [passed for passed, _, _ in calls] == reused
        assert [rec.dre for rec in records] == [value for _, value, _ in calls]
        for _, value, recomputed in calls:
            if algo == "ddrs":
                assert value == recomputed
            else:
                assert abs(value - recomputed) <= 1e-10 * abs(recomputed)

    @pytest.mark.parametrize("algo, alpha, per_iter, at_start", [
        ("ddrs", 2.0, 2, 2),
        ("iddrs", 2.0, 2, 2),
        ("baseline_gt", 0.05, 1, 1),
    ])
    def test_each_record_projects_the_mean_once(self, monkeypatch, algo, alpha,
                                                per_iter, at_start):
        # A splitting iteration projects the mean once for its record and
        # once in dre_value; the neighborhood report takes its spreads from
        # singular values and projects nothing, and the baseline has no dre.
        calls = []
        real = metrics.project_stiefel

        def counting(M):
            calls.append(1)
            return real(M)

        monkeypatch.setattr(metrics, "project_stiefel", counting)
        cfg = parse_config(TINY.replace("algorithm.kind = ddrs",
                                        "algorithm.kind = %s" % algo)
                           .replace("alpha = 2.0", "alpha = %r" % alpha)
                           + "max_iters = 6\n")
        records, summary = run_experiment(cfg)
        assert summary["status"] == "ok" and len(records) == 7
        assert len(calls) == at_start + 6 * per_iter

    def test_baseline_runs(self):
        cfg = parse_config(TINY.replace("algorithm.kind = ddrs",
                                        "algorithm.kind = baseline_gt")
                           .replace("alpha = 2.0", "alpha = 0.05"))
        records, summary = run_experiment(cfg)
        assert summary["status"] == "ok"
        assert all(r.dre is None for r in records)
        for key in ("neighborhood_violations", "violations_by_kind",
                    "first_violation_iter", "sigma_min"):
            assert summary[key] is None

    def test_summary_counts_violations_by_kind_and_the_smallest_sigma(self):
        cfg = parse_config(TINY)
        _, summary = run_experiment(cfg)
        setup = harness.build_run(cfg)
        stack, _ = harness.start_run(cfg, setup)
        counts = dict.fromkeys(VIOLATION_KINDS, 0)
        first = {}
        smallest = []
        for _ in range(cfg.max_iters):
            stack = ddrs_step(stack, setup.problem, setup.W, setup.params)
            mixed = mix(setup.W, cfg.t, stack.x) + stack.d
            smallest.append(np.linalg.svd(mixed, compute_uv=False).min())
            report = neighborhood_report(stack, setup.constants, setup.W, cfg.t)
            for kind in report.violations:
                counts[kind] += 1
                first.setdefault(kind, stack.k)
        assert summary["violations_by_kind"] == counts
        assert summary["first_violation_iter"] == {
            kind: first.get(kind) for kind in VIOLATION_KINDS}
        assert summary["sigma_min"] == pytest.approx(min(smallest), rel=1e-12)

    def test_tuned_preset_summary_names_the_violated_conditions(self):
        _, summary = run_experiment(preset("synthetic-er06",
                                           "max_iters = 40\nlog_every = 40\n"))
        assert summary["neighborhood_violations"] == 40
        assert summary["violations_by_kind"] == {
            "x-neighborhood": 2, "z-neighborhood": 0, "projection-tube": 40}
        assert summary["first_violation_iter"] == {
            "x-neighborhood": 1, "z-neighborhood": None, "projection-tube": 1}
        assert 0 < summary["sigma_min"] < 1

    def test_configuration_warnings_are_kept_in_the_summary(self, recwarn):
        # eps0 at or above delta2 = 1/96 warns on the first inexact step.
        cfg = parse_config(TINY.replace("algorithm.kind = ddrs",
                                        "algorithm.kind = iddrs")
                           + "algorithm.eps0 = 0.5\n")
        _, summary = run_experiment(cfg)
        assert summary["warnings"] == [
            "eps0 = 5.000e-01 is not below delta2 = 1.042e-02; the "
            "inexactness assumption is violated"]
        assert not recwarn.list

    def test_a_run_without_warnings_lists_none(self, recwarn):
        _, summary = run_experiment(parse_config(TINY))
        assert summary["warnings"] == []
        assert not recwarn.list

    def test_other_warnings_are_shown_not_kept(self, monkeypatch):
        step = harness.ddrs_step

        def noisy(stack, *args):
            warnings.warn("from the step", RuntimeWarning)
            return step(stack, *args)

        monkeypatch.setattr(harness, "ddrs_step", noisy)
        with pytest.warns(RuntimeWarning, match="from the step"):
            _, summary = run_experiment(parse_config(TINY))
        assert summary["warnings"] == []

    @pytest.mark.parametrize("escalate", [
        lambda: warnings.simplefilter("error", ConfigurationWarning),
        lambda: warnings.simplefilter("error"),
        lambda: warnings.filterwarnings("error", message="eps0 = ",
                                        category=ConfigurationWarning),
    ], ids=["category", "all", "message"])
    def test_a_configuration_warning_made_an_error_still_raises(self,
                                                                escalate):
        cfg = parse_config(TINY.replace("algorithm.kind = ddrs",
                                        "algorithm.kind = iddrs")
                           + "algorithm.eps0 = 0.5\n")
        with warnings.catch_warnings():
            escalate()
            with pytest.raises(ConfigurationWarning, match="eps0 = "):
                run_experiment(cfg)

    @pytest.mark.parametrize("action", ["ignore", "once", "default"])
    def test_filters_that_do_not_make_it_an_error_keep_it(self, action):
        cfg = parse_config(TINY.replace("algorithm.kind = ddrs",
                                        "algorithm.kind = iddrs")
                           + "algorithm.eps0 = 0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter(action, ConfigurationWarning)
            # An error filter for another message leaves this one alone.
            warnings.filterwarnings("error", message="no such message",
                                    category=ConfigurationWarning)
            before = list(warnings.filters)
            _, summary = run_experiment(cfg)
            _, again = run_experiment(cfg)
            assert warnings.filters == before
        assert summary["warnings"] == again["warnings"] == [
            "eps0 = 5.000e-01 is not below delta2 = 1.042e-02; the "
            "inexactness assumption is violated"]

    def test_beta_hat_resolution(self):
        cfg = parse_config(TINY.replace("alpha = 2.0", "beta_hat = 100.0"))
        _, summary = run_experiment(cfg)
        # alpha = beta * n / total = 100 * 4 / 200.
        assert summary["resolved_alpha"] == pytest.approx(2.0, abs=0)

    def test_diverged_status(self, monkeypatch):
        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise RankDeficientError("forced")

        monkeypatch.setattr(harness, "ddrs_step", boom)
        records, summary = run_experiment(parse_config(TINY))
        assert summary["status"] == "diverged"
        assert "forced" in summary["error"]
        assert calls["n"] == 1
        assert len(records) == 1  # the initial record survives


def test_non_finite_splitting_variable_is_diverged(tmp_path, monkeypatch):
    # The step the harness calls sees a NaN in the splitting variable at k=3.
    step = harness.ddrs_step

    def poisoned(stack, *args):
        if stack.k == 3:
            s = stack.s.copy()
            s[0, 0, 0] = np.nan
            stack = dataclasses.replace(stack, s=s)
        return step(stack, *args)

    monkeypatch.setattr(harness, "ddrs_step", poisoned)
    records, summary = run_experiment(parse_config(TINY))
    assert summary["status"] == "diverged"
    assert summary["error"] == (
        "NonFiniteInputError: prox input contains non-finite entries")
    assert summary["iterations"] == 3
    assert len(records) == 4  # the initial record and iterations 1..3

    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY)
    out = tmp_path / "nan.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    saved = json.loads((tmp_path / "nan.summary.json").read_text())
    assert saved["status"] == "diverged"
    assert "NonFiniteInputError" in saved["error"]


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = self._write(tmp_path, TINY)
        out = str(tmp_path / "rec.csv")
        rc = cli.main(["run", "--config", cfg, "--out", out,
                       "--emit-plotdata"])
        assert rc == 0
        assert (tmp_path / "rec.csv").exists()
        assert (tmp_path / "rec.summary.json").exists()
        assert (tmp_path / "rec.stationarity_sq.dat").exists()
        summary = json.loads((tmp_path / "rec.summary.json").read_text())
        assert summary["status"] == "ok"

    def test_run_jsonl_format(self, tmp_path):
        cfg = self._write(tmp_path, TINY)
        out = str(tmp_path / "rec.jsonl")
        rc = cli.main(["run", "--config", cfg, "--out", out,
                       "--format", "jsonl"])
        assert rc == 0
        assert len(read_records(out)) == 31

    def test_run_with_preset_and_override(self, tmp_path):
        cfg = self._write(tmp_path, "max_iters = 3\nlog_every = 1\n")
        out = str(tmp_path / "p.csv")
        rc = cli.main(["run", "--preset", "synthetic-er06-t1",
                       "--config", cfg, "--out", out])
        assert rc == 0
        assert len(read_records(out)) == 4

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL + "beta_hat = 2\n")
        assert cli.main(["run", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("problem.r = 20", "problem.r = 20 exceeds problem.d = 10"),
        ("problem.m_per = 1",
         r"problem.n \* problem.m_per = 8 is below problem.d = 10"),
        ("problem.n = 1", "problem.n must be >= 2"),
    ])
    def test_unbuildable_problem_is_a_config_error(self, tmp_path, capsys,
                                                   override, message):
        with pytest.raises(ConfigTypeError, match=message):
            preset("synthetic-er06", override)
        cfg = self._write(tmp_path, override + "\n")
        out = str(tmp_path / "r.csv")
        assert cli.main(["run", "--preset", "synthetic-er06", "--config", cfg,
                         "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key, value", [
        ("alpha", "0"), ("beta_hat", "-1"), ("master_seed", "-1"),
        ("problem.seed", "-1"), ("graph.seed", "-1")] + [
        (key, value) for key in ("alpha", "beta_hat", "algorithm.eps0")
        for value in ("inf", "-inf", "nan")])
    @pytest.mark.parametrize("command", ["run", "advise"])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys,
                                                  command, key, value):
        text = TINY.replace("alpha = 2.0\n", "")
        if key not in ("alpha", "beta_hat"):
            text += "alpha = 2.0\n"
        text += "%s = %s\n" % (key, value)
        with pytest.raises(ConfigTypeError, match=key):
            parse_config(text)
        argv = [command, "--config", self._write(tmp_path, text)]
        if command == "run":
            argv += ["--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_summary_and_plot_files_stay_beside_a_suffixless_out(self,
                                                                 tmp_path):
        cfg = self._write(tmp_path, TINY)
        run_dir = tmp_path / "run.d"
        run_dir.mkdir()
        rc = cli.main(["run", "--config", cfg, "--out",
                       str(run_dir / "records"), "--emit-plotdata"])
        assert rc == 0
        assert len(read_records(run_dir / "records")) == 31
        assert (run_dir / "records.summary.json").exists()
        assert (run_dir / "records.stationarity_sq.dat").exists()
        assert not (tmp_path / "run.summary.json").exists()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_records_at_a_suffixless_out_read_back(self, tmp_path, fmt):
        cfg = self._write(tmp_path, TINY)
        out = tmp_path / "recs"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--format", fmt]) == 0
        records, _ = run_experiment(parse_config(TINY))
        assert _strip_wall(read_records(out)) == _strip_wall(records)

    def test_run_prints_each_configuration_warning_once(self, tmp_path,
                                                        capsys):
        cfg = self._write(tmp_path, TINY.replace("algorithm.kind = ddrs",
                                                 "algorithm.kind = iddrs")
                          + "algorithm.eps0 = 0.5\n")
        assert cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "r.csv")]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: ") == 1
        assert "warning: eps0 = 5.000e-01 is not below delta2" in err
        saved = json.loads((tmp_path / "r.summary.json").read_text())
        assert len(saved["warnings"]) == 1

    def test_rank_above_the_idx_width_is_a_config_error(self, tmp_path,
                                                        capsys):
        images = pixel_like_images(40, 5, 5, seed=0, border=1)
        path = tmp_path / "images.idx"
        path.write_bytes(idx_bytes(0x00000803, images.shape, images.ravel()))
        cfg = self._write(tmp_path, "problem.path = %s\nproblem.n = 4\n"
                          "problem.r = 30\n" % path)
        assert cli.main(["run", "--preset", "mnist-er06", "--config", cfg,
                         "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: problem.r = 30 exceeds the data's width 25\n")

    def test_unknown_preset_exit_code(self, capsys):
        assert cli.main(["run", "--preset", "nope"]) == 1

    def test_missing_everything_exit_code(self, capsys):
        assert cli.main(["run"]) == 1

    def test_diverged_exit_code(self, tmp_path, monkeypatch):
        def fake_run(config):
            return [], {"status": "diverged", "final": None,
                        "iterations": 0}

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        cfg = self._write(tmp_path, TINY)
        out = str(tmp_path / "d.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 2

    def test_advise_prints_constants(self, tmp_path, capsys):
        cfg = self._write(tmp_path, TINY)
        assert cli.main(["advise", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "delta1" in out and "t_min" in out and "alpha_max" in out

    def test_advise_with_preset_only(self, capsys):
        assert cli.main(["advise", "--preset", "synthetic-er06"]) == 0
        out = capsys.readouterr().out
        assert "t_min" in out
        # Tuned preset steps sit far outside the certified bound.
        assert "exceeds the certified bound" in out

    def test_advise_reports_the_constants_run_records(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "max_iters = 2\n")
        out = str(tmp_path / "p.csv")
        assert cli.main(["run", "--preset", "synthetic-er06",
                         "--config", cfg, "--out", out]) == 0
        advice = json.loads((tmp_path / "p.summary.json").read_text())["advice"]
        capsys.readouterr()
        assert cli.main(["advise", "--preset", "synthetic-er06"]) == 0
        printed = capsys.readouterr().out
        assert "C2 = %s " % advice["c2"] in printed
        assert "alpha_max = %.10g " % advice["alpha_max"] in printed

    # advise shows the run's warning as a Python warning, as before.
    @pytest.mark.filterwarnings("ignore::ddrs.algorithms.ConfigurationWarning")
    def test_mnist_width_setup_matches_the_dense_spectrum(self, tmp_path,
                                                          capsys):
        wide = "problem.d = 784\nmax_iters = 2\nlog_every = 1\n"
        setup = harness.build_run(preset("synthetic-er06", wide))
        Ls = []
        for inst in setup.problem:
            # Singular, so the set-up took its extremes from Lanczos.
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(inst.gram)
            evals = np.linalg.eigvalsh(inst.gram)
            assert abs(inst.shift - evals[-1]) <= 1e-14 * evals[-1]
            L = evals[-1] - max(evals[0], 0.0)
            assert abs(inst.smoothness() - L) <= 1e-12 * evals[-1]
            Ls.append(L)
        assert abs(setup.L - max(Ls)) <= 1e-12 * setup.L

        cfg = self._write(tmp_path, wide)
        out = str(tmp_path / "w.csv")
        assert cli.main(["run", "--preset", "synthetic-er06",
                         "--config", cfg, "--out", out]) == 0
        saved = json.loads((tmp_path / "w.summary.json").read_text())
        assert saved["warnings"] == ["initial consensus error 7.889e-01 "
                                     "exceeds the certified bound 1.250e-01"]
        capsys.readouterr()
        assert cli.main(["advise", "--preset", "synthetic-er06",
                         "--config", cfg]) == 0
        printed = capsys.readouterr().out
        advice = saved["advice"]
        assert "L = %.6g " % setup.L in printed
        assert "C2 = %s " % advice["c2"] in printed
        assert "alpha_max = %.10g " % advice["alpha_max"] in printed
        assert "delta3 = %.10g\n" % advice["delta3"] in printed
        assert "C1 = %.6g " % advice["c1"] in printed

    def test_validate_graph(self, tmp_path, capsys):
        cfg = self._write(tmp_path, TINY)
        assert cli.main(["validate-graph", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "sigma2" in out and "row-sum residual" in out

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.txt")]) == 1


SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(code):
    """Run ``code`` in a fresh interpreter on the library sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


# A scipy module loaded during a wide iDDRS run adds to its peak resident
# memory (scipy.linalg: 14 MB over 40 iterations).
_SCIPY_LOADED = 'any(m.split(".")[0] == "scipy" for m in sys.modules)'


def test_importing_the_package_loads_no_scipy_linalg():
    assert _run_python("""
        import sys
        import ddrs
        print(%s)
    """ % _SCIPY_LOADED) == ["False"]


def test_a_wide_iddrs_run_builds_no_inverse_and_loads_no_scipy_linalg():
    # The set-up runs Lanczos on each singular Gram, and the records'
    # envelope takes CG proxes: only an exact prox needs scipy.
    out = _run_python("""
        import sys
        import ddrs.problems as problems
        from ddrs.harness import preset, run_experiment

        made = []
        real = problems.Dataset.instances

        def instances(self):
            made.extend(real(self))
            return made

        problems.Dataset.instances = instances
        records, summary = run_experiment(preset("synthetic-er06", %r))
        print(summary["status"], len(records), len(made),
              sum(inst._inverse is not None for inst in made),
              %s)
    """ % ("problem.d = %d\nalgorithm.kind = iddrs\nmax_iters = 6\n"
           "log_every = 3\n" % 200, _SCIPY_LOADED))
    assert out == ["ok", "3", "8", "0", "False"]


def test_the_envelope_keeps_a_step_prox_only_if_it_meets_the_tolerance(
        small_dataset):
    problem = small_dataset.instances()
    rng = np.random.default_rng(3)
    s = rng.standard_normal((4, 6, 2))
    x = s + 1e-3 * rng.standard_normal(s.shape)
    alpha = 2.0
    for mu_sq, kept in ((np.array([0.0, np.inf, 0.0, np.inf]), [0, 2]),
                        (None, [])):
        stack = AgentStack(s=s, x=x, y=x, z=x, d=np.zeros_like(x),
                           mu_sq=mu_sq)
        out = harness._envelope_proxes(stack, problem, alpha)
        for i, inst in enumerate(problem):
            if i in kept:
                assert np.array_equal(out[i], x[i])
            else:
                mu = inst.residual(alpha, s[i], out[i])
                ss = float(np.vdot(s[i], s[i]))
                assert float(np.vdot(mu, mu)) <= max(
                    harness._ENVELOPE_PROX_TOL * (1 + ss),
                    inst.residual_floor(alpha, s[i]))


@pytest.mark.parametrize("alpha_shift", [1.0, 1e2, 1e4, 1e6, 1e7])
def test_the_envelope_tolerance_clears_the_residual_rounding_floor(
        small_dataset, alpha_shift):
    # The refined exact prox leaves only the rounding floor of the computed
    # residual, which grows with alpha * shift; the floor a certified prox
    # may stop at stays an order of magnitude above it, and below 2% of the
    # envelope's 1e-24 relative up to 1e2, where it leaves that bound as is.
    rng = np.random.default_rng(5)
    for inst in small_dataset.instances():
        alpha = alpha_shift / inst.shift
        s = rng.standard_normal((inst.dim, 2))
        x = inst.prox(alpha, s)
        for _ in range(3):
            x = x - inst._solve(alpha, inst.residual(alpha, s, x))
        mu = inst.residual(alpha, s, x)
        floor = inst.residual_floor(alpha, s)
        assert float(np.vdot(mu, mu)) <= 0.1 * floor
        if alpha_shift <= 1e2:
            assert floor <= 0.02 * harness._ENVELOPE_PROX_TOL * (
                1 + float(np.vdot(s, s)))


@pytest.mark.parametrize("overrides", [
    "",
    "problem.d = 64\nmax_iters = 60\n",
], ids=["preset", "d64"])
def test_iddrs_envelope_matches_the_exact_prox_at_every_record(monkeypatch,
                                                               overrides):
    exact = []

    def spy(s_blocks, problem, alpha, x_blocks=None):
        exact.append(dre_value(s_blocks, problem, alpha))
        return dre_value(s_blocks, problem, alpha, x_blocks)

    monkeypatch.setattr(harness, "dre_value", spy)
    config = preset("synthetic-er06", "algorithm.kind = iddrs\n" + overrides)
    records, summary = run_experiment(config)
    assert summary["status"] == "ok"
    assert len(records) == len(exact) == config.max_iters + 1
    for rec, value in zip(records, exact):
        assert abs(rec.dre - value) <= 1e-10 * abs(value)


def test_iddrs_at_a_large_alpha_shift_certifies_every_envelope_prox(
        monkeypatch):
    # beta_hat = 1e9 puts the preset's alpha * shift near 8e4, where a fixed
    # 1e-24 residual bound lies below the rounding floor even of the refined
    # exact prox.  The run must end ok, no envelope solve may fall back to
    # the exact prox, and the envelope keeps the exact prox's value.
    exact, fallbacks, inside = [], [], []
    solve, prox = DPCAInstance.prox_inexact, DPCAInstance.prox

    def solve_spy(self, alpha, s, eps, x0=None):
        inside.append(x0 is not None)
        try:
            return solve(self, alpha, s, eps, x0=x0)
        except SolverStallError:
            fallbacks.append("stall")
            raise
        finally:
            inside.pop()

    def prox_spy(self, alpha, s):
        if any(inside):
            fallbacks.append("refined")
        return prox(self, alpha, s)

    def spy(s_blocks, problem, alpha, x_blocks=None):
        exact.append(dre_value(s_blocks, problem, alpha))
        return dre_value(s_blocks, problem, alpha, x_blocks)

    monkeypatch.setattr(DPCAInstance, "prox_inexact", solve_spy)
    monkeypatch.setattr(DPCAInstance, "prox", prox_spy)
    monkeypatch.setattr(harness, "dre_value", spy)
    config = preset("synthetic-er06", "algorithm.kind = iddrs\n"
                    "beta_hat = 1e9\nmax_iters = 20\n")
    records, summary = run_experiment(config)
    setup = harness.build_run(config)
    assert setup.params.alpha * max(i.shift for i in setup.problem) > 5e4
    assert summary["status"] == "ok", summary.get("error")
    assert fallbacks == []
    assert len(records) == len(exact) == config.max_iters + 1
    for rec, value in zip(records, exact):
        assert abs(rec.dre - value) <= 1e-10 * abs(value)


def test_iddrs_below_the_rounding_floor_certifies_the_floor_and_ends_ok(
        tmp_path, monkeypatch):
    # beta_hat = 650000 on pixel-like 6 x 6 images puts alpha * shift near
    # 8e5, and rho = 0.5 takes eps_k below the residual's rounding floor
    # within 60 iterations.  The run must end ok, and every record whose
    # mu_sq_max exceeds eps_k must hold each agent within the solver's floor.
    images = pixel_like_images(2000, 6, 6, seed=0, border=1)
    path = tmp_path / "images.idx"
    path.write_bytes(idx_bytes(0x00000803, images.shape, images.ravel()))
    stacks = {}
    step = harness.iddrs_step

    def step_spy(stack, problem, W, params, k):
        stacks[k + 1] = step(stack, problem, W, params, k)
        return stacks[k + 1]

    monkeypatch.setattr(harness, "iddrs_step", step_spy)
    config = preset("mnist-er06", "problem.path = %s\nalgorithm.kind = iddrs\n"
                    "beta_hat = 650000\nalgorithm.rho = 0.5\nmax_iters = 60\n"
                    "log_every = 5\n" % path)
    records, summary = run_experiment(config)
    setup = harness.build_run(config)
    assert setup.params.alpha * max(i.shift for i in setup.problem) > 5e5
    assert summary["status"] == "ok", summary.get("error")
    assert records[-1].k == 60
    floored = 0
    for rec in records[1:]:
        eps = epsilon_schedule(config.algorithm.eps0, config.algorithm.rho,
                               rec.k - 1)
        if rec.mu_sq_max <= eps:
            continue
        floored += 1
        stack = stacks[rec.k]
        for inst, s, mu_sq in zip(setup.problem, stack.s, stack.mu_sq):
            assert mu_sq <= max(eps, inst.residual_floor(setup.params.alpha, s))
    assert floored
