import dataclasses

import pytest

from checks import check_run, first_target_record, schedule_violations
from ddrs.harness import preset, run_experiment, write_records


@pytest.fixture(scope="module")
def inexact_run():
    """The preset-scale iDDRS run, which records certified residuals."""
    records, summary = run_experiment(
        preset("synthetic-er06-t10", "algorithm.kind = iddrs\n"))
    return records, summary


def written(tmp_path, records, name="records.csv"):
    path = tmp_path / name
    write_records(records, path)
    return path


def test_a_correct_run_passes(tmp_path, inexact_run):
    records, summary = inexact_run
    assert check_run(0, summary, records, written(tmp_path, records)) == []
    assert first_target_record(records).k < records[-1].k


def test_doctored_records_file_is_rejected(tmp_path, inexact_run):
    records, summary = inexact_run
    path = written(tmp_path, records)
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-15))
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = check_run(0, summary, records, path)
    assert any("does not read back" in p for p in problems)


def test_unreadable_records_file_is_rejected(tmp_path, inexact_run):
    records, summary = inexact_run
    path = tmp_path / "records.csv"
    path.write_text("k,something_else\n1,2\n")
    assert any("unreadable" in p for p in check_run(0, summary, records, path))
    missing = tmp_path / "absent.csv"
    assert any("unreadable" in p for p in check_run(0, summary, records, missing))


def test_out_of_schedule_mu_sq_max_is_rejected(tmp_path, inexact_run):
    records, summary = inexact_run
    algo = summary["config"]["algorithm"]
    k = 40
    bound = algo["eps0"] * algo["rho"] ** (k - 1)
    at_bound = [dataclasses.replace(rec, mu_sq_max=bound) if rec.k == k else rec
                for rec in records]
    assert schedule_violations(at_bound, algo["eps0"], algo["rho"]) == []
    above = [dataclasses.replace(rec, mu_sq_max=bound * (1 + 1e-12))
             if rec.k == k else rec for rec in records]
    # The file matches the doctored records, so only the schedule check fires.
    problems = check_run(0, summary, above, written(tmp_path, above))
    assert problems == ["mu_sq_max above eps0*rho^(k-1) at k=[40]"]


def test_missed_targets_and_bad_status_are_rejected(tmp_path, inexact_run):
    records, summary = inexact_run
    early = records[:20]
    problems = check_run(0, summary, early, written(tmp_path, early))
    assert len(problems) == 1 and "not met by iteration 19" in problems[0]
    diverged = dict(summary, status="diverged", error="RankDeficientError: x")
    problems = check_run(2, diverged, records, written(tmp_path, records))
    assert problems[:2] == ["exit code 2",
                            "status 'diverged': RankDeficientError: x"]


def test_a_run_without_output_is_rejected(tmp_path):
    assert check_run(None, None, None, tmp_path / "none.csv") == [
        "exit code None", "run returned no records"]
