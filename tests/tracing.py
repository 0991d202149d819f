"""Memory measurement shared by the tests."""

import tracemalloc


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traced while fn ran, in bytes)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
