"""The distributed-PCA benchmark: splitting engine vs gradient tracking.

Reproduces the qualitative findings on the synthetic dataset: more
communication rounds per iteration allow larger steps and faster
convergence, and the splitting engine outruns the gradient-tracking
baseline at tuned steps.

Run with: python demos/synthetic_benchmark.py
"""

from ddrs import preset, run_experiment


def first_k(records, field, threshold):
    for rec in records:
        value = getattr(rec, field)
        if rec.k >= 1 and value is not None and value <= threshold:
            return rec.k
    return None


def show(name):
    records, summary = run_experiment(preset(name))
    final = records[-1]
    print("%-28s consensus<=1e-10 @ %-5s stationarity<=1e-8 @ %-5s "
          "d_s<=1e-4 @ %-5s final stat %.2e" % (
              name,
              first_k(records, "consensus_sq", 1e-10),
              first_k(records, "stationarity_sq", 1e-8),
              first_k(records, "ds", 1e-4),
              final.stationarity_sq))
    return summary


print("synthetic DPCA, 8 agents, 1000x10 blocks, rank 5 (500 iterations)\n")
summary = show("synthetic-er06-t10")
show("synthetic-er06-t1")
show("synthetic-er03-t10")
show("synthetic-ring-t10")
show("synthetic-er06-baseline")

print("\nrunning-min stationarity log-log slope over k in %s: %.2f"
      % (summary["rate_window"], summary["rate_slope"]))
print("(the certified guarantee is slope <= -1)")
