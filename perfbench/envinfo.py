"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import importlib.util
import mmap
import os
import platform

import numpy as np
import scipy

# Variables the BLAS/OpenMP runtimes read for their thread count; run.py
# sets them before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_name() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": _blas_name(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def warm_page_cache(path) -> None:
    with open(path, "rb") as fh:
        while fh.read(1 << 24):
            pass


def resident_fraction(path) -> float | None:
    """Share of the file's pages held in the page cache (``mincore``), or
    None where the call is unavailable."""
    size = os.path.getsize(path)
    if size == 0:
        return 1.0
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        mincore = libc.mincore
    except (OSError, AttributeError):
        return None
    mincore.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.POINTER(ctypes.c_ubyte)]
    mincore.restype = ctypes.c_int
    pages = (size + mmap.PAGESIZE - 1) // mmap.PAGESIZE
    vec = (ctypes.c_ubyte * pages)()
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ) as mm:
        view = np.frombuffer(mm, dtype=np.uint8)
        try:
            rc = mincore(ctypes.c_void_p(view.ctypes.data), size, vec)
        finally:
            del view
    if rc != 0:
        return None
    return float(np.count_nonzero(np.frombuffer(vec, dtype=np.uint8) & 1)) / pages
