"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn) -> float:
    """Peak traced allocation of fn() above what was held on entry, in MB."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - entry) / 1e6
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
