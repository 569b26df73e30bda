"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """measure(call): the bytes that call() holds at its traced peak, above
    the traced memory at its entry.  Tracing stops afterwards unless it was
    already on."""
    def measure(call):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            if started:
                tracemalloc.stop()

    return measure
