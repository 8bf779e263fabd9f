"""`blas_core`, and a report header naming the numpy and OpenBLAS build that the golden digests are compared on."""
from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def _openblas(symbol: str, restype):
    """Result of the no-argument function `symbol` of numpy's bundled OpenBLAS, or None where it cannot be loaded."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        function = getattr(ctypes.CDLL(str(libs[0])), symbol)
    except (IndexError, OSError, AttributeError):
        return None
    function.argtypes, function.restype = [], restype
    return function()


def blas_core() -> str:
    """Name of the OpenBLAS kernel numpy's bundled library runs on this CPU, or "unknown"."""
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return "unknown" if core is None else core.decode()


def pytest_report_header(config):
    threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return f"numpy {np.__version__}, OpenBLAS core {blas_core()}, OpenBLAS threads {threads or 'unknown'}"
