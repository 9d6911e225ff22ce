"""Thread count of the OpenBLAS that numpy loaded: None when none is found,
and then setting it does nothing. The count is process-wide, so only the
main thread sets it (limit); on any other thread, a pool's worker or a
caller's own, limit leaves it alone. per_solve is the one rule for the
count a solve gets."""

import ctypes
import functools
import itertools
import os
import threading
from contextlib import contextmanager

# 2 cores, OpenBLAS 0.3.31: 1 thread won at 6e5 and 1.5e6 entries, 2 at 3e6; BENCH_small_solves.json
SERIAL_ENTRIES = 10**6


def cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@functools.cache
def _library():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None. numpy's
    wheels prefix the symbols with scipy_; 64-bit-index builds suffix them with 64_."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path, pre, suf in itertools.product(paths, ("scipy_openblas", "openblas"), ("64_", "")):
        get, put = (getattr(ctypes.CDLL(path), f"{pre}_{op}_num_threads{suf}", None)
                    for op in ("get", "set"))
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


def threads() -> int | None:
    return None if _library() is None else _library()[0]()


def per_solve(entries: int, solves: int = 1) -> int:
    """BLAS threads for each of `solves` concurrent solves on `entries`-entry
    matrices: one at a small size, where threading the factorizations costs
    more than it gains, else the CPUs shared out so the counts do not multiply
    past the cores."""
    return 1 if entries <= SERIAL_ENTRIES else max(1, cpus() // solves)


@contextmanager
def limit(n: int):
    """Run the body with at most n BLAS threads, never more than the count in
    effect, and restore that count on exit. Off the main thread the body runs
    under the count in effect."""
    before = threads() if threading.current_thread() is threading.main_thread() else None
    if before is not None:
        _library()[1](min(n, before))
    try:
        yield
    finally:
        if before is not None:
            _library()[1](before)
