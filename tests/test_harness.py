import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddrs.cli as cli
import ddrs.harness as harness
import ddrs.metrics as metrics
from ddrs.algorithms import (
    ConfigurationWarning,
    ddrs_step,
    epsilon_schedule,
    iddrs_step,
)
from ddrs.harness import (
    ConfigError,
    ConfigTypeError,
    MissingRequiredError,
    UnknownKeyError,
    _data_source,
    parse_config,
    preset,
    preset_text,
    read_records,
    run_experiment,
    write_records,
)
from ddrs.manifold import RankDeficientError
from ddrs.problems import (
    DPCAInstance,
    SolverStallError,
    gen_synthetic,
    load_idx,
    normalize_and_split,
)
from ddrs.metrics import (
    RECORD_FIELDS,
    VIOLATION_KINDS,
    IterationRecord,
    dre_value,
    neighborhood_report,
    rate_fit,
)
from ddrs.network import gen_complete, gen_erdos_renyi, gen_ring, mix

from helpers import envelope_rounding, idx_bytes, pixel_like_images


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

    def test_out_is_not_a_config_key(self):
        # The records path is set by ``ddrs run --out`` alone.
        with pytest.raises(UnknownKeyError, match=re.escape(
                "line 6: unknown key 'out'")):
            parse_config(MINIMAL + "out = x\n")

    def test_a_line_without_a_value_names_its_line(self):
        with pytest.raises(ConfigTypeError, match=re.escape(
                "line 6: expected 'key = value': 'alpha 1.0'")):
            parse_config(MINIMAL + "alpha 1.0\n")

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
                        dre=-1.5, dre_gap=2.5e-7, obj=2.0, ds=0.1,
                        mu_sq_max=None, wall_ns=12),
        IterationRecord(k=1, consensus_sq=1e-17, stationarity_sq=0.0,
                        dre=None, obj=None, ds=None, mu_sq_max=3e-9,
                        wall_ns=999),
    ]

    # RECS as write_records writes them: the header, then 17 significant
    # digits per float and an empty cell for each absent value.
    RECS_TEXT = (
        "k,consensus_sq,stationarity_sq,dre,dre_gap,obj,ds,mu_sq_max,wall_ns\n"
        "0,0.25,0.33333333333333331,-1.5,2.4999999999999999e-07,2,"
        "0.10000000000000001,,12\n"
        "1,1.0000000000000001e-17,0,,,,,3e-09,999\n")

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records([], path)
        assert path.read_text() == ",".join(RECORD_FIELDS) + "\n"

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records(self.RECS, path)
        back = read_records(path)
        assert back == list(self.RECS)

    def test_the_written_text_is_pinned(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records(self.RECS, path)
        assert path.read_bytes() == self.RECS_TEXT.encode("ascii")

    _doubles = st.floats(allow_nan=True, allow_infinity=True,
                         allow_subnormal=True)
    _special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                2.2250738585072009e-308, math.inf,
                                -math.inf, math.nan, 1.0 / 3.0])
    _value = st.one_of(_special, _doubles)

    @given(records=st.lists(st.builds(
        IterationRecord,
        k=st.integers(0, 2 ** 63 - 1),
        consensus_sq=_value, stationarity_sq=_value,
        dre=st.none() | _value, dre_gap=st.none() | _value,
        obj=st.none() | _value, ds=st.none() | _value,
        mu_sq_max=st.none() | _value,
        wall_ns=st.integers(0, 2 ** 63 - 1)), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_exact(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("records") / "r.csv"
        write_records(records, path)
        back = read_records(path)
        assert len(back) == len(records)
        for got, want in zip(back, records):
            for name in RECORD_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                if isinstance(b, float):
                    # NaN-aware and sign-aware: the same double, bit for bit.
                    assert type(a) is float
                    assert (math.isnan(a) and math.isnan(b)
                            or struct.pack("<d", a) == struct.pack("<d", b))
                else:
                    assert a == b and type(a) is type(b)

    def test_absent_cells_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records(self.RECS, path)
        row = path.read_text().splitlines()[2].split(",")
        assert row[RECORD_FIELDS.index("dre")] == ""
        assert row[RECORD_FIELDS.index("ds")] == ""

    @pytest.mark.parametrize("cells", [5, len(RECORD_FIELDS) + 1])
    def test_row_with_the_wrong_cell_count_names_its_line(self, tmp_path,
                                                         cells):
        path = tmp_path / "r.csv"
        write_records(self.RECS, path)
        header, first, second = path.read_text().splitlines()
        row = (second.split(",") + ["7"])[:cells]
        path.write_text("\n".join([header, first, ",".join(row)]) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                "%s line 3: %d cells" % (path, cells))):
            read_records(path)

    def _with_cell(self, tmp_path, name, cell):
        """RECS' file with field ``name`` of its second row set to ``cell``."""
        path = tmp_path / "r.csv"
        header, first, second = self.RECS_TEXT.splitlines()
        row = second.split(",")
        row[RECORD_FIELDS.index(name)] = cell
        path.write_text("\n".join([header, first, ",".join(row)]) + "\n")
        return path

    @pytest.mark.parametrize("name", ["k", "consensus_sq", "stationarity_sq",
                                      "wall_ns"])
    def test_an_empty_required_cell_names_its_line_and_field(self, tmp_path,
                                                             name):
        path = self._with_cell(tmp_path, name, "")
        with pytest.raises(ValueError, match=re.escape(
                "%s line 3: cannot read %s from ''" % (path, name))):
            read_records(path)

    @pytest.mark.parametrize("name, cell", [
        ("consensus_sq", "abc"), ("dre", "abc"), ("k", "1.5"),
        ("wall_ns", "1.5"), ("wall_ns", "1e3")])
    def test_an_unparsable_cell_names_its_line_and_field(self, tmp_path,
                                                         name, cell):
        path = self._with_cell(tmp_path, name, cell)
        with pytest.raises(ValueError, match=re.escape(
                "%s line 3: cannot read %s from %r" % (path, name, cell))):
            read_records(path)

    def test_empty_csv_file_is_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(
                "%s: empty file" % path)):
            read_records(path)

    @pytest.mark.parametrize("blank_lines", [0, 2])
    def test_wrong_header_names_its_file_and_line(self, tmp_path,
                                                  blank_lines):
        path = tmp_path / "r.csv"
        write_records(self.RECS, path)
        header, first, second = path.read_text().splitlines()
        header = header.replace("dre", "envelope")
        path.write_text("\n" * blank_lines
                        + "\n".join([header, first, second]) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                "%s line %d: unexpected CSV header %r"
                % (path, blank_lines + 1, header.split(",")))):
            read_records(path)

    # dre_gap: the header of files written before that field existed.
    @pytest.mark.parametrize("drop", ["dre_gap", "ds", "k"])
    def test_a_header_missing_another_field_is_rejected(self, tmp_path, drop):
        path = tmp_path / "r.csv"
        header = [f for f in RECORD_FIELDS if f != drop]
        path.write_text(",".join(header) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                "%s line 1: unexpected CSV header %r" % (path, header))):
            read_records(path)


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
        blocks_a = _data_source(base)[2]
        blocks_b = _data_source(other)[2]
        for a, b in zip(blocks_a, blocks_b, strict=True):
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

    @pytest.mark.parametrize("overrides, window", [
        ("max_iters = 300\nlog_every = 50\n", [50, 300]),
        ("max_iters = 8\n", [1, 8]),
    ], ids=["sparse", "short"])
    def test_rate_slope_fits_every_recorded_iteration(self, overrides, window):
        # Both runs have fewer than 5 records with k in [10, 200], the only
        # iterations a fit used to see, so they read no slope.
        records, summary = run_experiment(preset("synthetic-er06", overrides))
        assert summary["rate_window"] == window
        assert summary["rate_slope"] == rate_fit(records, "stationarity_sq")[0]
        assert summary["rate_slope"] < 0
        with pytest.raises(ValueError):
            rate_fit(records, "stationarity_sq", k_min=10, k_max=200)

    def test_rate_slope_needs_five_records(self):
        _, summary = run_experiment(preset("synthetic-er06", "max_iters = 4\n"))
        assert summary["rate_slope"] is None and summary["rate_window"] is None

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
        # bitwise, and their start (x = s) recomputes.  iDDRS passes the
        # step's certified proxes from k = 1 on, and its value lies within
        # the record's dre_gap of the exact recompute; its start records no
        # envelope.
        calls = []

        def spy(s_blocks, problem, alpha, x_blocks=None, gx_blocks=None):
            value = dre_value(s_blocks, problem, alpha, x_blocks, gx_blocks)
            rounding = (envelope_rounding(problem, alpha, x_blocks)
                        if x_blocks is not None else 0.0)
            calls.append((x_blocks is not None, value,
                          dre_value(s_blocks, problem, alpha), rounding))
            return value

        monkeypatch.setattr(harness, "dre_value", spy)
        cfg = parse_config(TINY.replace("algorithm.kind = ddrs",
                                        "algorithm.kind = %s" % algo)
                           + "log_every = 5\n")
        records, summary = run_experiment(cfg)
        assert summary["status"] == "ok"
        if algo == "iddrs":
            assert records[0].dre is None and records[0].dre_gap is None
            records = records[1:]
        assert [call[0] for call in calls] == [rec.k >= 1 for rec in records]
        assert [rec.dre for rec in records] == [call[1] for call in calls]
        for rec, (_, value, recomputed, rounding) in zip(records, calls,
                                                         strict=True):
            if algo == "ddrs":
                assert value == recomputed and rec.dre_gap is None
            else:
                assert abs(value - recomputed) <= rec.dre_gap + rounding

    @pytest.mark.parametrize("algo, alpha, per_iter, at_start", [
        ("ddrs", 2.0, 2, 2),
        ("iddrs", 2.0, 3, 1),
        ("baseline_gt", 0.05, 1, 1),
    ])
    def test_each_record_projects_the_mean_once(self, monkeypatch, algo, alpha,
                                                per_iter, at_start):
        # A splitting iteration projects the mean once for its record and
        # once in dre_value, and an iDDRS one once more in dre_gap; the
        # neighborhood report takes its spreads from singular values and
        # projects nothing.  The baseline and the iDDRS start have no dre.
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
                    "first_violation_iter", "sigma_min",
                    "alpha_over_alpha_max", "t_over_t_min"):
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

    def test_summary_says_how_far_outside_the_certified_regime_a_run_was_set(
            self):
        # The tuned preset takes a step 457 times alpha_max, with 10 rounds
        # against t_min = 15.
        _, summary = run_experiment(preset("synthetic-er06",
                                           "max_iters = 2\nlog_every = 2\n"))
        advice = summary["advice"]
        assert summary["alpha_over_alpha_max"] == (
            summary["resolved_alpha"] / advice["alpha_max"])
        assert summary["t_over_t_min"] == 10 / advice["t_min"]
        assert 457 < summary["alpha_over_alpha_max"] < 458
        assert advice["t_min"] == 15

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
        json.dumps(summary)  # plain JSON, no fallback encoder


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


def test_a_linear_algebra_error_ends_the_run_failed(tmp_path, monkeypatch):
    def broken(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(harness, "ddrs_step", broken)
    records, summary = run_experiment(parse_config(TINY))
    assert summary["status"] == "failed"
    assert summary["error"] == "LinAlgError: SVD did not converge"
    assert summary["iterations"] == 0
    assert len(records) == 1  # the initial record survives
    json.dumps(summary)  # plain JSON, no fallback encoder

    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY)
    out = tmp_path / "failed.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    saved = json.loads((tmp_path / "failed.summary.json").read_text())
    assert saved["status"] == "failed"
    assert saved["error"] == summary["error"]


def test_an_exact_run_at_a_huge_step_size_ends_ok():
    # A factor's top eigenvalue may exceed the shift by rounding, which
    # made 1 + alpha (shift - lam) negative here: the run ended failed at
    # k = 0 after a square root of a negative weight.
    records, summary = run_experiment(parse_config(
        TINY.replace("alpha = 2.0", "alpha = 1e17")))
    assert summary["status"] == "ok", summary["error"]
    assert summary["iterations"] == 30


@pytest.mark.parametrize("alpha", ["1e100", "1e160", "1e300"])
def test_an_inexact_run_at_a_huge_step_size_ends_diverged(tmp_path, alpha):
    # 10 u (1 + alpha shift) >= 1 puts the rounding floor of an inexact prox
    # above ||s||^2; such step sizes overflowed the start's products, the
    # system products and the floor itself, each a traceback here.
    text = (TINY.replace("algorithm.kind = ddrs", "algorithm.kind = iddrs")
            .replace("alpha = 2.0", "alpha = " + alpha))
    records, summary = run_experiment(parse_config(text))
    assert summary["status"] == "diverged"
    assert summary["error"].startswith(
        "SolverStallError: step size %.3e puts the rounding floor"
        % float(alpha))
    assert summary["iterations"] == 0 and len(records) == 1

    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    out = tmp_path / "huge.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    saved = json.loads((tmp_path / "huge.summary.json").read_text())
    assert saved["status"] == "diverged"
    assert saved["error"] == summary["error"]


@pytest.mark.parametrize("kind, graph", [("ring", gen_ring),
                                         ("complete", gen_complete)])
def test_ring_and_complete_graph_runs_end_ok(kind, graph):
    config = parse_config(
        TINY.replace("graph.kind = erdos_renyi\ngraph.p = 0.8\n",
                     "graph.kind = %s\n" % kind)
        .replace("max_iters = 30", "max_iters = 2"))
    assert harness._build_graph(config).edges == graph(4).edges
    records, summary = run_experiment(config)
    assert summary["status"] == "ok", summary["error"]
    assert [rec.k for rec in records] == [0, 1, 2]


def test_an_unset_graph_seed_is_drawn_from_the_master_seed():
    config = parse_config(TINY.replace("graph.seed = 2\n", ""))
    seed = harness._substream_seed(config.master_seed, harness._STREAM_GRAPH)
    assert harness._build_graph(config).edges == gen_erdos_renyi(
        4, 0.8, seed).edges
    first, summary = run_experiment(config)
    again, repeat = run_experiment(config)
    assert summary["status"] == "ok", summary["error"]
    assert summary["resolved_seeds"]["graph"] == seed
    assert _strip_wall(first) == _strip_wall(again)
    assert ({k: v for k, v in summary.items() if k != "final"}
            == {k: v for k, v in repeat.items() if k != "final"})


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = self._write(tmp_path, TINY)
        out = str(tmp_path / "rec.csv")
        rc = cli.main(["run", "--config", cfg, "--out", out])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.txt", "rec.csv", "rec.summary.json"]
        summary = json.loads((tmp_path / "rec.summary.json").read_text())
        assert summary["status"] == "ok"
        # Each agent's full-rank 6 x 6 Gram keeps all its eigenpairs.
        assert summary["prox_rank"] == [6] * 4

    def test_run_writes_records_csv_by_default(self, tmp_path, monkeypatch):
        cfg = self._write(tmp_path, TINY)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", cfg]) == 0
        assert len(read_records(tmp_path / "records.csv")) == 31
        assert (tmp_path / "records.summary.json").exists()

    def test_run_has_no_format_option(self, tmp_path, capsys):
        cfg = self._write(tmp_path, TINY)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg, "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_run_has_no_plot_data_option(self, tmp_path, capsys):
        cfg = self._write(tmp_path, TINY)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg, "--emit-plotdata"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --emit-plotdata" in capsys.readouterr().err

    def test_a_config_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("\ufeff" + TINY.lstrip(), encoding="utf-8")
        out = tmp_path / "r.csv"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        records, _ = run_experiment(parse_config(TINY))
        assert _strip_wall(read_records(out)) == _strip_wall(records)

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

    @pytest.mark.parametrize("command", ["run", "validate-graph"])
    def test_a_two_agent_ring_is_a_config_error(self, tmp_path, capsys,
                                                command):
        with pytest.raises(ConfigTypeError, match="ring needs problem.n >= 3"):
            preset("synthetic-ring", "problem.n = 2")
        argv = [command, "--preset", "synthetic-ring",
                "--config", self._write(tmp_path, "problem.n = 2\n")]
        if command == "run":
            argv += ["--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: ring needs problem.n >= 3, got 2\n")

    @pytest.mark.parametrize("key, value", [
        ("alpha", "0"), ("beta_hat", "-1"), ("master_seed", "-1"),
        ("problem.seed", "-1"), ("graph.seed", "-1"), ("graph.p", "0"),
        ("graph.p", "1.5"), ("problem.xi", "1"), ("algorithm.rho", "1")] + [
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

    def test_summary_stays_beside_a_suffixless_out(self, tmp_path):
        cfg = self._write(tmp_path, TINY)
        run_dir = tmp_path / "run.d"
        run_dir.mkdir()
        rc = cli.main(["run", "--config", cfg, "--out",
                       str(run_dir / "records")])
        assert rc == 0
        assert len(read_records(run_dir / "records")) == 31
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "records", "records.summary.json"]
        assert not (tmp_path / "run.summary.json").exists()

    @pytest.mark.parametrize("kind", ["ddrs", "iddrs", "baseline_gt"])
    def test_records_at_a_suffixless_out_read_back(self, tmp_path, kind):
        text = TINY.replace("algorithm.kind = ddrs", "algorithm.kind = " + kind)
        out = tmp_path / "recs"
        assert cli.main(["run", "--config", self._write(tmp_path, text),
                         "--out", str(out)]) == 0
        records, summary = run_experiment(parse_config(text))
        assert _strip_wall(read_records(out)) == _strip_wall(records)
        assert summary["status"] == "ok", summary["error"]
        json.dumps(summary)  # plain JSON, no fallback encoder

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
        # Every iDDRS prox is a conjugate-gradient solve.
        assert saved["prox_rank"] is None

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

    @pytest.mark.parametrize("command", ["run", "advise"])
    def test_a_width_of_one_is_a_config_error(self, tmp_path, capsys,
                                              command):
        # St(1, 1) is two points, and a 1 x 1 Gram has L = 0, which the
        # advice used to reject with an uncaught ValueError.
        argv = [command, "--preset", "synthetic-er06", "--config",
                self._write(tmp_path, "problem.d = 1\nproblem.r = 1\n")]
        if command == "run":
            argv += ["--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: problem.d must be >= 2, got 1\n")

    def test_an_idx_width_of_one_is_a_config_error(self, tmp_path, capsys):
        images = pixel_like_images(40, 1, 1, seed=0, border=0)
        path = tmp_path / "images.idx"
        path.write_bytes(idx_bytes(0x00000803, images.shape, images.ravel()))
        cfg = self._write(tmp_path, "problem.path = %s\nproblem.n = 4\n"
                          "problem.r = 1\n" % path)
        assert cli.main(["advise", "--preset", "mnist-er06",
                         "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: the data's width must be >= 2, got 1\n")

    @pytest.mark.parametrize("command", ["run", "advise"])
    def test_data_without_variance_is_a_config_error(self, tmp_path, capsys,
                                                     command):
        # Blank images give every agent a zero Gram, so L = 0, which the
        # advice used to reject with an uncaught ValueError.
        path = tmp_path / "blank.idx"
        path.write_bytes(idx_bytes(0x00000803, (40, 5, 5), bytes(1000)))
        cfg = self._write(tmp_path, "problem.path = %s\nproblem.n = 4\n"
                          "problem.r = 2\n" % path)
        argv = [command, "--preset", "mnist-er06", "--config", cfg]
        if command == "run":
            argv += ["--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: the data have no variance: every agent's Gram matrix "
            "has L = 0.0\n")

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

    @pytest.mark.parametrize("kind", ["ddrs", "baseline_gt", "iddrs"])
    def test_only_an_inexact_run_advises_a_tolerance_sum(self, tmp_path,
                                                         capsys, kind):
        cfg = self._write(tmp_path, "max_iters = 2\nalgorithm.kind = %s\n"
                          % kind)
        out = str(tmp_path / "p.csv")
        assert cli.main(["run", "--preset", "synthetic-er06",
                         "--config", cfg, "--out", out]) == 0
        advice = json.loads((tmp_path / "p.summary.json").read_text())["advice"]
        capsys.readouterr()
        assert cli.main(["advise", "--preset", "synthetic-er06",
                         "--config", cfg]) == 0
        printed = capsys.readouterr().out
        note = "c3/c4_shape use the schedule limit"
        assert "C3 = %.6g\n" % advice["c3"] in printed
        assert "C4_shape = %s   C5_shape = %s\n" % (
            advice["c4_shape"], advice["c5_shape"]) in printed
        if kind == "iddrs":
            # eps0 = 1e-6 and rho = 0.9 sum to 1e-5, as before exact runs
            # stopped taking it.
            assert advice["c3"] == 1.7380492467881946e-09
            assert advice["c4_shape"] == 2.370392430617745
            assert advice["c5_shape"] == 2.37044899916024
            assert "%s 1e-05 " % note in printed
            assert any(n.startswith(note) for n in advice["notes"])
        else:
            assert advice["c3"] == 0
            assert advice["c5_shape"] == advice["c4_shape"]
            assert (advice["c4_shape"] is None) == (kind == "baseline_gt")
            assert note not in printed
            assert not any(n.startswith(note) for n in advice["notes"])

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
        # The spectrum's decay leaves each exact prox a low-rank factor.
        assert len(saved["prox_rank"]) == 8
        assert all(k <= 784 / 3 for k in saved["prox_rank"])
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

    @pytest.mark.parametrize("command", ["run", "advise"])
    @pytest.mark.parametrize("beta_hat, alpha", [("1e308", "inf"),
                                                 ("5e-324", "0.0")])
    def test_a_beta_hat_whose_step_size_overflows_is_a_config_error(
            self, tmp_path, monkeypatch, capsys, command, beta_hat, alpha):
        # 1e308 * n overflows and 5e-324 * n / rows underflows, though each
        # beta_hat is finite and > 0.
        cfg = self._write(tmp_path, "beta_hat = %s\n" % beta_hat)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "--preset", "synthetic-er06",
                         "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: beta_hat = %s gives alpha = %s,"
                              % (float(beta_hat), alpha))
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]

    def test_an_out_path_without_a_directory_fails_before_the_run(
            self, tmp_path, monkeypatch, capsys):
        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        cfg = self._write(tmp_path, TINY)
        out = tmp_path / "missing" / "rec.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no directory %s for --out\n" % (
            out.parent,)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]

    @pytest.mark.parametrize("out, directory", [
        ("outdir", "outdir"), ("s/r.csv", "s/r.summary.json")],
        ids=["records", "summary"])
    def test_an_out_path_that_is_a_directory_fails_before_the_run(
            self, tmp_path, monkeypatch, capsys, out, directory):
        # Either file's path naming a directory would fail only after the
        # run, when that file is written.
        calls = []

        def counting_step(*args):
            calls.append(None)
            return ddrs_step(*args)

        monkeypatch.setattr(harness, "ddrs_step", counting_step)
        cfg = self._write(tmp_path, TINY)
        (tmp_path / directory).mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: %s is a directory, not a file to write\n" % directory)
        assert calls == []
        files = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                       if p.is_file())
        assert files == ["cfg.txt"]

    @pytest.mark.parametrize("command, overrides, message", [
        ("run", "algorithm.kind = iddrs\nalgorithm.eps0 = 1\n",
         "eps0 = 1.000e+00 is not below delta2"),
        # A start this wide lies outside the certified x-neighborhood.
        ("run", "problem.d = 50\nproblem.r = 20\nproblem.m_per = 100\n",
         "initial consensus error"),
        ("advise", "problem.d = 50\nproblem.r = 20\nproblem.m_per = 100\n",
         "initial consensus error"),
    ], ids=["run-eps0", "run-wide-start", "advise-wide-start"])
    def test_a_configuration_warning_made_an_error_is_an_error_line(
            self, tmp_path, monkeypatch, capsys, command, overrides, message):
        cfg = self._write(tmp_path, overrides + "max_iters = 5\n")
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConfigurationWarning)
            assert cli.main([command, "--preset", "synthetic-er06",
                             "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]

    def test_advise_prints_the_eps0_warning_a_run_lists(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        eps0 = "algorithm.eps0 = 1\nmax_iters = 2\n"
        cfg = self._write(tmp_path, TINY + "algorithm.kind = iddrs\n" + eps0)
        assert cli.main(["run", "--config", cfg]) == 0
        listed = json.loads(Path("records.summary.json").read_text())["warnings"]
        eps0_lines = ["warning: %s" % m for m in listed if m.startswith("eps0")]
        assert len(eps0_lines) == 1
        capsys.readouterr()
        assert cli.main(["advise", "--config", cfg]) == 0
        assert eps0_lines[0] in capsys.readouterr().out.splitlines()
        # Only iDDRS solves its proxes inexactly.
        cfg = self._write(tmp_path, TINY + eps0)
        assert cli.main(["advise", "--config", cfg]) == 0
        assert "eps0" not in capsys.readouterr().out


SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(code):
    """Run ``code`` in a fresh interpreter on the library sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


# A scipy module loaded during a wide run adds to its peak resident memory
# (scipy.linalg: 14 MB over 40 iterations).
_SCIPY_LOADED = 'any(m.split(".")[0] == "scipy" for m in sys.modules)'

# Keeps the instances of the last run, to count the exact-prox factors they
# have built, indented as the test bodies it is prepended to.
_COUNT_FACTORS = """
        import sys
        import ddrs.harness as harness
        from ddrs.harness import preset, run_experiment

        made = []
        real = harness.build_run

        def build_run(config):
            setup = real(config)
            made[:] = setup.problem
            return setup

        harness.build_run = build_run
"""


def test_importing_the_package_loads_no_scipy_linalg():
    assert _run_python("""
        import sys
        import ddrs
        print(%s)
    """ % _SCIPY_LOADED) == ["False"]


def test_a_wide_iddrs_run_builds_no_inverse_and_loads_no_scipy_linalg():
    # The set-up runs Lanczos on each singular Gram, and an iDDRS run's steps
    # and records' envelope take only CG proxes.
    out = _run_python(_COUNT_FACTORS + """
        records, summary = run_experiment(preset("synthetic-er06", %r))
        print(summary["status"], len(records), len(made),
              sum(inst.prox_rank is not None for inst in made),
              %s)
    """ % ("problem.d = %d\nalgorithm.kind = iddrs\nmax_iters = 6\n"
           "log_every = 3\n" % 200, _SCIPY_LOADED))
    assert out == ["ok", "3", "8", "0", "False"]


def test_wide_exact_and_baseline_runs_load_no_scipy():
    # An exact prox builds its factor with NumPy; the baseline takes no prox.
    out = _run_python(_COUNT_FACTORS + """
        for kind in ("ddrs", "baseline_gt"):
            records, summary = run_experiment(preset("synthetic-er06", (
                "problem.d = 200\\nmax_iters = 6\\nlog_every = 3\\n"
                "algorithm.kind = %%s\\n" %% kind)))
            print(kind, summary["status"], len(records),
                  sum(inst.prox_rank is not None for inst in made))
        print(%s)
    """ % _SCIPY_LOADED)
    assert out == ["ddrs", "ok", "3", "8", "baseline_gt", "ok", "3", "0",
                   "False"]


@pytest.mark.parametrize("kind", ["ddrs", "iddrs"])
def test_the_first_step_leaves_s_bitwise_unchanged(kind):
    # s_1 = s_0 + z_0 - x_0 with z_0 = x_0 = s_0, so an iDDRS record at
    # k = 0 would repeat record 1's envelope of the same s.
    config = preset("synthetic-er06", "algorithm.kind = %s\n" % kind)
    setup = harness.build_run(config)
    stack, _ = harness.start_run(config, setup)
    args = (stack, setup.problem, setup.W, setup.params)
    first = ddrs_step(*args) if kind == "ddrs" else iddrs_step(*args, 0)
    assert first.s.tobytes() == stack.s.tobytes()


def test_a_ddrs_run_records_the_same_envelope_at_k_0_and_1():
    records, summary = run_experiment(preset("synthetic-er06",
                                             "max_iters = 1\n"))
    assert summary["status"] == "ok" and len(records) == 2
    assert records[0].dre is not None
    assert records[0].dre.hex() == records[1].dre.hex()


@pytest.mark.parametrize("alpha_shift", [1.0, 1e2, 1e4, 1e6, 1e7])
def test_the_envelope_tolerance_clears_the_residual_rounding_floor(
        small_dataset, alpha_shift):
    # The refined exact prox leaves only the rounding floor of the computed
    # residual, which grows with alpha * shift; the floor a certified prox
    # may stop at stays an order of magnitude above it.
    rng = np.random.default_rng(5)
    for inst in small_dataset.instances():
        alpha = alpha_shift / inst.shift
        s = rng.standard_normal((inst.dim, 2))
        x = inst.prox(alpha, s)
        for _ in range(3):
            x = x - inst._solve(alpha, inst.residual(alpha, s, x))
        mu = inst.residual(alpha, s, x)
        assert float(np.vdot(mu, mu)) <= 0.1 * inst.residual_floor(alpha, s)


def _exact_envelopes(monkeypatch):
    """
    Spy on the harness's ``dre_value``: the returned list gets, for each
    call, the envelope at the exact proxes and ``envelope_rounding`` at the
    proxes passed.
    """
    exact = []

    def spy(s_blocks, problem, alpha, x_blocks=None, gx_blocks=None):
        exact.append((dre_value(s_blocks, problem, alpha),
                      envelope_rounding(problem, alpha, x_blocks)))
        return dre_value(s_blocks, problem, alpha, x_blocks, gx_blocks)

    monkeypatch.setattr(harness, "dre_value", spy)
    return exact


def _assert_within_gap(records, exact):
    # The start records no envelope; every later record lies within its
    # gap of the exact proxes' envelope.
    assert records[0].dre is None and records[0].dre_gap is None
    assert len(records) == len(exact) + 1
    for rec, (value, rounding) in zip(records[1:], exact, strict=True):
        assert abs(rec.dre - value) <= rec.dre_gap + rounding


@pytest.mark.parametrize("overrides", [
    "",
    "problem.d = 64\nmax_iters = 300\n",
    "problem.d = 784\nmax_iters = 300\nlog_every = 10\n",
], ids=["preset", "d64", "d784"])
def test_iddrs_envelope_matches_the_exact_prox_at_every_record(monkeypatch,
                                                               overrides):
    exact = _exact_envelopes(monkeypatch)
    config = preset("synthetic-er06", "algorithm.kind = iddrs\n" + overrides)
    records, summary = run_experiment(config)
    assert summary["status"] == "ok"
    assert len(records) == config.max_iters // config.log_every + 1
    _assert_within_gap(records, exact)
    # The gap shrinks with the schedule's tolerances.
    assert records[-1].dre_gap <= 1e-9 * abs(records[-1].dre)


def test_iddrs_at_a_large_alpha_shift_certifies_every_envelope_prox(
        monkeypatch):
    # beta_hat = 1e9 puts the preset's alpha * shift near 8e4, where
    # a_i ~ alpha L_i^2 makes the gap's value term dominate.  The run must
    # end ok, no solve may stall or call the exact prox, and every record's
    # envelope lies within its gap of the exact proxes' envelope.
    fallbacks, inside = [], []
    solve, prox = DPCAInstance.prox_inexact, DPCAInstance.prox

    def solve_spy(self, alpha, s, eps, x0=None, gx0=None):
        inside.append(x0 is not None)
        try:
            return solve(self, alpha, s, eps, x0=x0, gx0=gx0)
        except SolverStallError:
            fallbacks.append("stall")
            raise
        finally:
            inside.pop()

    def prox_spy(self, alpha, s):
        if any(inside):
            fallbacks.append("refined")
        return prox(self, alpha, s)

    monkeypatch.setattr(DPCAInstance, "prox_inexact", solve_spy)
    monkeypatch.setattr(DPCAInstance, "prox", prox_spy)
    exact = _exact_envelopes(monkeypatch)
    config = preset("synthetic-er06", "algorithm.kind = iddrs\n"
                    "beta_hat = 1e9\nmax_iters = 20\n")
    records, summary = run_experiment(config)
    setup = harness.build_run(config)
    assert setup.params.alpha * max(i.shift for i in setup.problem) > 5e4
    assert summary["status"] == "ok", summary.get("error")
    assert fallbacks == []
    assert len(records) == config.max_iters + 1
    _assert_within_gap(records, exact)


def test_iddrs_at_a_small_alpha_shift_certifies_the_floor_of_x_minus_s(
        monkeypatch):
    # beta_hat = 100 puts the preset's alpha * shift near 0.008, where the
    # rounding of x - s, not alpha * shift, sets the residual's floor.  Under
    # a floor of (10 u alpha shift)^2 (1 + ||s||^2) it stalled at iteration
    # 545.  The run makes 9,469 Gram products; a solve that spends its whole
    # budget of 200 adds up to 200, so the bound allows 12 such solves of
    # the run's 4,800, and one per step would add about 120,000.
    products = []
    gram_apply = DPCAInstance._gram_apply
    monkeypatch.setattr(DPCAInstance, "_gram_apply",
                        lambda inst, x: products.append(1) or gram_apply(inst, x))
    config = preset("synthetic-er06", "algorithm.kind = iddrs\n"
                    "beta_hat = 100\nmax_iters = 600\nlog_every = 100\n")
    records, summary = run_experiment(config)
    assert summary["status"] == "ok", summary["error"]
    assert records[-1].k == 600
    assert len(products) < 12_000


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


def _assert_same_agents(setup, dataset):
    """A built run's agents are those of ``dataset.instances()``, bitwise."""
    want = dataset.instances()
    assert setup.dataset.n == len(setup.problem) == dataset.n
    assert setup.dataset.rows == sum(b.shape[0] for b in dataset.blocks)
    for inst, ref, gram in zip(setup.problem, want, setup.dataset.grams,
                               strict=True):
        # The run keeps the instances' Grams, not copies of them.
        assert gram is inst.gram
        np.testing.assert_array_equal(inst.gram, ref.gram)
        assert inst.shift == ref.shift
        assert inst.smoothness() == ref.smoothness()
    assert setup.L == max(ref.smoothness() for ref in want)


class TestStreamedSetUp:
    """build_run forms each block, makes its agent and drops it."""

    WIDE = "problem.d = 784\nmax_iters = 300\nlog_every = 40\n"

    @pytest.fixture(scope="class")
    def traced_wide_setup(self):
        """``(setup, peak, held)`` of build_run at the wide-exact shape."""
        config = preset("synthetic-er06-t10", self.WIDE)
        tracemalloc.start()
        try:
            setup = harness.build_run(config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return setup, peak, held

    def test_the_wide_set_up_peaks_near_its_grams(self, traced_wide_setup):
        # The 8 Grams are 37.5 MiB; holding every block at once took the
        # peak to 2.42 times that, one block at a time to 1.36.
        setup, peak, _ = traced_wide_setup
        assert peak < 1.5 * sum(inst.gram.nbytes for inst in setup.problem)

    def test_a_wide_run_holds_its_grams_and_no_blocks(self,
                                                      traced_wide_setup):
        # One of the 8 blocks alone is 6 MiB.
        setup, _, held = traced_wide_setup
        grams = sum(inst.gram.nbytes for inst in setup.problem)
        assert held <= grams + 2 ** 21

    @pytest.mark.parametrize("wide", [False, True], ids=["preset", "d784"])
    def test_synthetic_agents_equal_the_dataset_s(self, wide,
                                                  traced_wide_setup):
        config = preset("synthetic-er06-t10", self.WIDE if wide else "")
        setup = (traced_wide_setup[0] if wide
                 else harness.build_run(config))
        p = config.problem
        dataset = gen_synthetic(p.n, p.m_per, p.d, p.r, p.xi, p.seed)
        _assert_same_agents(setup, dataset)
        np.testing.assert_array_equal(setup.dataset.ground_truth.mat,
                                      dataset.ground_truth.mat)

    def test_idx_agents_equal_the_dataset_s(self, tmp_path):
        images = pixel_like_images(400, 12, 12, seed=5)
        path = tmp_path / "images.idx"
        path.write_bytes(idx_bytes(0x00000803, images.shape, images.ravel()))
        config = preset("mnist-er06", "problem.path = %s\n" % path)
        setup = harness.build_run(config)
        dataset = normalize_and_split(load_idx(path), config.problem.n,
                                      harness.resolved_seeds(config)["data"])
        _assert_same_agents(setup, dataset)
        assert setup.dataset.ground_truth is None
