"""Fixtures shared by several test modules."""

import signal

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "deadline(seconds): the time limit of the deadline fixture"
    )


@pytest.fixture
def deadline(request):
    """Turn a computation that never ends, or ends too late, into a failure.

    The limit is 30 s, or the seconds named by ``@pytest.mark.deadline``.
    """
    marker = request.node.get_closest_marker("deadline")
    seconds = marker.args[0] if marker else 30

    def expire(signum, frame):
        raise TimeoutError(f"not finished within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
