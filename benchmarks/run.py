"""
The ddrs benchmark.

Runs ``ddrs run`` in-process (the CLI ``main`` on a config file) in a closed
loop from one process: each repeat starts when the previous one has ended,
until ``--seconds`` have passed.  Every repeat's outputs are checked.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` each
repeat runs once untraced and once with layer spans, and it prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Usage, from the repository root::

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S]
                              [--trace 0|1] [--spans FILE]
"""

import os
import sys
from pathlib import Path

# Fixed before numpy loads: one BLAS thread is faster and steadier than one
# per core at these sizes, and never exceeds nproc.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None):
    if not (SRC / "ddrs" / "__init__.py").is_file():
        print("error: library sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # needs the library on the path

    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
