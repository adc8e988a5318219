"""Fixtures shared by the test modules."""

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
