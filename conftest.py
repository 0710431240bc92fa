"""Test-session setup shared by ``tests/`` and ``perfbench/tests/``.

BLAS runs on one thread unless the environment already says otherwise.  The
gauge layer makes many small batched matrix products; with OpenBLAS's default
thread pool they slow several-fold whenever another CPU-bound process shares
the machine.  numpy is not imported yet when pytest loads this file, so the
setting reaches the BLAS library; ``perfbench/run.py`` pins the same variables.

Every test has a deadline of TEST_DEADLINE_S seconds, far above the slowest
test (a few seconds).  A SIGALRM fails a test that runs past it, with the
traceback of where it stalled; ``faulthandler_timeout`` in pyproject.toml only
dumps the tracebacks and lets the stall go on.
"""

import os
import signal
import threading

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

TEST_DEADLINE_S = 300

pytest_plugins = ["pytester"]  # tests/test_deadline.py runs pytest on a file of its own


@pytest.fixture(autouse=True)
def _test_deadline():
    """Fail the running test once it has taken TEST_DEADLINE_S seconds."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
