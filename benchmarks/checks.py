"""
Output checks for one benchmarked ``ddrs run``.

A run passes when it exits 0 with status ``ok``, reaches every tuned target
by its final iteration, writes a records file that reads back to the
records it returned in memory, and, when it recorded inexact prox
residuals, keeps each within the certified schedule.  Failures are
collected as messages, never raised, so the benchmark counts them.
"""

from ddrs.harness import read_records

# The criteria the synthetic presets were tuned for.
TARGETS = (("stationarity_sq", 1e-8), ("consensus_sq", 1e-10), ("ds", 1e-4))


def first_target_record(records):
    """The first record meeting every target at once, or None."""
    for rec in records:
        if all(getattr(rec, field) is not None and getattr(rec, field) <= limit
               for field, limit in TARGETS):
            return rec
    return None


def schedule_violations(records, eps0, rho):
    """
    Records whose ``mu_sq_max`` exceeds ``eps0 * rho**(k-1)``.

    Record k follows step k-1, whose prox tolerance is ``eps0 * rho**(k-1)``.
    """
    return [rec for rec in records
            if rec.k >= 1 and rec.mu_sq_max is not None
            and rec.mu_sq_max > eps0 * rho ** (rec.k - 1)]


def check_run(exit_code, summary, records, records_path):
    """Return the list of failed checks (empty when the run is correct)."""
    problems = []
    if exit_code != 0:
        problems.append("exit code %r" % (exit_code,))
    if summary is None or records is None:
        problems.append("run returned no records")
        return problems
    if summary.get("status") != "ok":
        problems.append("status %r: %s" % (summary.get("status"), summary.get("error")))
    if first_target_record(records) is None:
        problems.append("targets %s not met by iteration %s"
                        % (dict(TARGETS), records[-1].k if records else None))
    try:
        on_disk = read_records(records_path)
    except (OSError, ValueError, TypeError) as exc:
        problems.append("records file unreadable: %s" % exc)
    else:
        if on_disk != list(records):
            problems.append("records file does not read back to the returned records")
    algo = summary["config"]["algorithm"]
    late = schedule_violations(records, algo["eps0"], algo["rho"])
    if late:
        problems.append("mu_sq_max above eps0*rho^(k-1) at k=%s"
                        % [rec.k for rec in late[:5]])
    return problems
