"""Thread count of the OpenBLAS that numpy loaded: None when none is found,
and then setting it does nothing. The count is process-wide, so change it
only on the thread that starts and joins a pool, never in a worker. A solve
of at most SERIAL_ENTRIES entries runs on one thread: threading its small
factorizations costs more than it gains (for_solve, bench.pool_blas_limit)."""

import ctypes
import functools
import itertools
import os
import threading
from contextlib import contextmanager, nullcontext

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


@contextmanager
def limit(n: int):
    """Run the body with at most n BLAS threads, never more than the count in
    effect, and restore that count on exit."""
    before = threads()
    if before is not None:
        _library()[1](min(n, before))
    try:
        yield
    finally:
        if before is not None:
            _library()[1](before)


def serial(entries: int) -> bool:
    """Whether a solve on a matrix of `entries` entries runs on one BLAS thread."""
    return entries <= SERIAL_ENTRIES


def for_solve(entries: int):
    """BLAS limit of one solve: one thread at a serial size, set only on the main
    thread; any other thread (a pool's worker, a caller's own) keeps the count."""
    owner = threading.current_thread() is threading.main_thread()
    return limit(1) if owner and serial(entries) else nullcontext()
