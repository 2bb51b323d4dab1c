"""Test-session setup: hold BLAS to one thread.

The suite runs many small matrix products, and on a few cores a second BLAS
thread only spins on them.  OpenBLAS reads these variables once, when numpy
loads it, so they are set here, before any test module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
