"""Test-session setup shared by ``tests/`` and ``perfbench/tests/``.

BLAS runs on one thread unless the environment already says otherwise.  The
gauge layer makes many small batched matrix products; with OpenBLAS's default
thread pool they slow several-fold whenever another CPU-bound process shares
the machine.  numpy is not imported yet when pytest loads this file, so the
setting reaches the BLAS library; ``perfbench/run.py`` pins the same variables.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
