"""Fixtures shared by the test modules."""

import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def time_limit():
    """``time_limit(seconds)``: a block that fails its test, rather than hang
    it, once it has run ``seconds`` of wall time."""

    @contextmanager
    def limit(seconds):
        def expire(signum, frame):
            pytest.fail(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
