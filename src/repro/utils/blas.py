"""Run a block of numpy BLAS calls on one thread.

The Gram products of SVM training are small and gain little from
OpenBLAS's worker threads; on a busy machine they lose, because the
product waits until a worker gets a core.  On a 2-core host a smoke-scale
campaign spent 1.6 s building Gram matrices with ``workers=2`` and 0.54 s
with one BLAS thread.  ``threadpoolctl`` is not a dependency, so
:func:`single_threaded_blas` calls the ``set_num_threads`` of the OpenBLAS
that numpy bundles directly; under any other BLAS it does nothing.  The
thread count is process-wide: overlapping blocks from several threads
share one saved value, restored when the last of them leaves.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from typing import Iterator

import numpy as np

__all__ = ["single_threaded_blas", "blas_threads"]

_lock = threading.Lock()
_depth = 0
_saved = 0


@functools.lru_cache(maxsize=None)
def _openblas_api():
    """``(get_num_threads, set_num_threads)`` of numpy's OpenBLAS, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    put.argtypes = [ctypes.c_int]
                    return get, put
    return None


def blas_threads() -> int | None:
    """Current thread count of numpy's OpenBLAS (``None`` if not found)."""
    api = _openblas_api()
    return None if api is None else int(api[0]())


@contextlib.contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the ``with`` block with numpy's OpenBLAS on one thread."""
    global _depth, _saved
    api = _openblas_api()
    if api is None:
        yield
        return
    get, put = api
    with _lock:
        if _depth == 0:
            _saved = int(get())
            put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                put(_saved)
