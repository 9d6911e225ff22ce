"""Execution conditions recorded with every run.

The BLAS thread count is read from the OpenBLAS library numpy loaded, not
inferred from environment variables or from sirmc's `--deterministic` flag
(which relies on threadpoolctl, absent here).
"""

from __future__ import annotations

import ctypes
import itertools
import os

import numpy as np

# Environment variables that set BLAS / OpenMP thread counts. Workload
# processes start with all of them unset, so the caller's shell cannot
# change the threading under test.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    """CPUs this process may run on, as `nproc` prints it."""
    return len(os.sched_getaffinity(0))


def _openblas():
    """(config string, thread count) of the loaded OpenBLAS, or Nones."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        # numpy's wheels prefix the symbols with scipy_; 64-bit-index builds
        # suffix them with 64_.
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return get_config().decode(), int(get_threads())
    return None, None


def conditions(trial_threads: int) -> dict:
    config, blas_threads = _openblas()
    return {
        "nproc": nproc(),
        "numpy": np.__version__,
        "openblas": config,
        "blas_threads": blas_threads,
        "trial_threads": trial_threads,
        "threads_product": None if blas_threads is None else trial_threads * blas_threads,
        "blas_env_set": sorted(v for v in BLAS_THREAD_VARS if v in os.environ),
    }
