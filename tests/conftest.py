import threading
from concurrent.futures import ThreadPoolExecutor, wait

import pytest


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
