"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """measure(call, held=False): the bytes that call() holds at its traced
    peak, above the traced memory at its entry; with held=True the pair
    (peak, bytes still held when it has returned).  Tracing stops afterwards
    unless it was already on."""
    def measure(call, held=False):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            current, peak = tracemalloc.get_traced_memory()
            return (peak - entry, current - entry) if held else peak - entry
        finally:
            if started:
                tracemalloc.stop()

    return measure
