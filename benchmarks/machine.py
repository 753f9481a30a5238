"""
Machine facts recorded with every benchmark result.

Cores, Python, numpy and scipy versions, the BLAS build and the thread
count each loaded OpenBLAS reports, and the L2/L3 cache sizes.  Anything
that cannot be read is reported as None rather than failing the run.
"""

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy


def _cache_sizes():
    """Unified cache sizes of cpu0 in bytes, keyed 'L2', 'L3'."""
    sizes = {}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(root.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            if kind == "Unified" and size.endswith("K"):
                sizes["L" + level] = int(size[:-1]) * 1024
    except OSError:
        pass
    return sizes


def _openblas_threads():
    """``{library file: threads}`` for every OpenBLAS mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.rsplit("/", 1)[-1].lower()})
    getters = ["%sget_num_threads%s" % (prefix, suffix)
               for prefix in ("scipy_openblas_", "openblas_")
               for suffix in ("64_", "")]
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in getters:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = int(fn())
                break
    return found


def facts():
    """A JSON-ready dictionary of the machine and library facts."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "cores": cores,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
    }
