import os

# Pin BLAS to one thread before numpy loads anywhere: wall-time assertions in
# the acceptance suite need stable single-thread scaling, and results must not
# depend on the machine's core count.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def no_fdb_threads(monkeypatch):
    """Runs every test with the default thread count, whatever FDB_THREADS
    the shell exports; a test that needs the variable sets it itself."""
    monkeypatch.delenv("FDB_THREADS", raising=False)


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the thread pools the depth kernels start."""
    from fdb import depth

    sizes = []

    class Recording(depth.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(depth, "ThreadPoolExecutor", Recording)
    return sizes


@pytest.fixture
def workers_at_any_size(monkeypatch):
    """Lets inputs of any size use as many depth workers as they have
    blocks."""
    from fdb import depth

    monkeypatch.setattr(depth, "_PARALLEL_WORK", 0)
