import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

import pdvol.specfun as specfun


class IdleHelper:
    """A stand-in for the package's helper thread that is idle whenever
    asked: each task submitted to it runs on its own thread before ``submit``
    returns.  ``threads`` collects the threads that ran a task."""

    def __init__(self, pool):
        self.pool = pool
        self.threads = set()

    def submit(self, fn, *args):
        def run():
            self.threads.add(threading.get_ident())
            return fn(*args)

        future = self.pool.submit(run)
        wait([future], timeout=60)
        assert future.done()
        return future


@pytest.fixture
def idle_helper():
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield IdleHelper(pool)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, faked.  A helper thread started under them is shut
    down after the test, so on a one-CPU host it does not outlive the fake."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = specfun._helper_pool
    yield
    if specfun._helper_pool is not before:
        specfun._helper_pool[1].shutdown(wait=True)
        specfun._helper_pool = before
