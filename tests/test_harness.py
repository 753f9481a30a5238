import dataclasses
import json

import numpy as np
import pytest

import ddrs.cli as cli
import ddrs.harness as harness
from ddrs.algorithms import ddrs_step
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
from ddrs.metrics import (
    RECORD_FIELDS,
    VIOLATION_KINDS,
    IterationRecord,
    dre_value,
    neighborhood_report,
)
from ddrs.network import mix


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
        # bitwise; the start (x = s) and inexact steps recompute.
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
        reused = [algo == "ddrs" and rec.k >= 1 for rec in records]
        assert [passed for passed, _, _ in calls] == reused
        assert [rec.dre for rec in records] == [value for _, value, _ in calls]
        for _, value, recomputed in calls:
            assert value == recomputed

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

    def test_validate_graph(self, tmp_path, capsys):
        cfg = self._write(tmp_path, TINY)
        assert cli.main(["validate-graph", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "sigma2" in out and "row-sum residual" in out

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.txt")]) == 1
