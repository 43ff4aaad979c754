"""Thread pinning and the machine record printed with every run."""

from __future__ import annotations

import os
import platform
import sys

# Every pool that numpy, scipy or their BLAS may start.  On a 2-core machine
# OpenBLAS's default threading makes the GP lake cell about 1.8x slower than
# one thread, with identical output, so the benchmark always runs on one.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """Set every thread-count variable to 1.  Call before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            rows = [ln.split() for ln in fh]
        libs = sorted({r[5] for r in rows if len(r) >= 6 and "openblas" in r[5].lower()})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def machine_info() -> dict:
    """nproc, CPU model, Python/numpy/scipy/OpenBLAS versions, thread setting."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "openblas_threads": _openblas_threads(),
    }
