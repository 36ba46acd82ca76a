"""Run NumPy's BLAS on one thread while sharded executors run.

A sharded :class:`~repro.core.program.Executor` already runs one worker
thread per core.  OpenBLAS, which NumPy ships with, keeps its own pool of
one thread per core: the float ``conv``/``linear`` steps of every shard
started threads the cores had no room for, its threaded GEMMs serialise on
a library-wide lock, and its idle threads busy-wait, so two shards on two
cores ran no faster than one.

The thread count is process-wide (OpenBLAS has no per-thread setting
outside its OpenMP builds), so BLAS calls other threads make during a
sharded run also run on one thread.  Thread count splits OpenBLAS's GEMM
output, not its sums: results do not change.  Where NumPy's BLAS is no
OpenBLAS this process can find, the cap does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

import numpy as np  # noqa: F401  (loads the BLAS this module looks for)

# NumPy's bundled ``scipy_openblas`` (64-bit then 32-bit ints), then a
# system OpenBLAS.
_SYMBOLS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}")

_lock = threading.Lock()
_depth = 0  # sharded runs in flight
_saved = 1  # the thread count the first of them found


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Any, Any]]:
    """``(get_num_threads, set_num_threads)`` of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _SYMBOLS:
            get = getattr(lib, pattern.format("get_num_threads"), None)
            set_ = getattr(lib, pattern.format("set_num_threads"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` when none was found."""
    api = _openblas()
    return None if api is None else int(api[0]())


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Cap OpenBLAS at one thread inside the block (re-entrant, thread-safe).

    Overlapping blocks share the cap: the first to enter saves the thread
    count and the last to leave restores it.
    """
    global _depth, _saved
    api = _openblas()
    if api is None:
        yield
        return
    with _lock:
        if _depth == 0:
            _saved = int(api[0]())
            if _saved > 1:
                api[1](1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved > 1:
                api[1](_saved)
