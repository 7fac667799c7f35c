"""Run the suite with one BLAS thread unless the environment says otherwise.

This is the benchmark's setting.  It is set here, before any test module
imports numpy, because a threaded OpenBLAS starts its thread pool on the
process's first LAPACK call, and that stall once pushed timing checks past
their bounds.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
