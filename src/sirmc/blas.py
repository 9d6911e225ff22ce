"""Thread count of the OpenBLAS that numpy loaded: None when none is found,
and then setting it does nothing. The count is process-wide, so change it
only on the thread that starts and joins a pool, never in a worker."""

import ctypes
import functools
import itertools
import os
from contextlib import contextmanager


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
