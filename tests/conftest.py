"""Fixtures shared by the test modules."""

import os
import platform

# The windowed sweep's golden bytes depend on OpenBLAS's kernels: under
# SkylakeX's and Haswell's, its SVDs round differently.  On x86-64 the tests,
# and the processes they start, run Haswell's (AVX2) kernels, which must be
# chosen before numpy loads.
if platform.machine() in ("x86_64", "AMD64"):
    os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import pytest

from qnute.cli import _openblas_threads


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS (get, set) pair set to 2 threads, restored afterwards."""
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy does not link OpenBLAS")
    get, put = threads
    prior = get()
    put(2)
    yield get, put
    put(prior)
