import ctypes
import os
from pathlib import Path

import numpy as np
import pytest


def _openblas_threads():
    """Thread count of the OpenBLAS bundled with the numpy wheel, if any."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def test_blas_threads_set_before_numpy_loads():
    # conftest.py sets OPENBLAS_NUM_THREADS; OpenBLAS reads it only when it loads
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against a bundled OpenBLAS")
    # OpenBLAS caps the requested count at the number of cores
    assert threads == min(int(os.environ["OPENBLAS_NUM_THREADS"]), os.cpu_count())
