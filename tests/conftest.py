"""Suite-wide settings and fixtures.

Hypothesis runs the same fixed set of examples on every run: ``derandomize``
fixes the examples, ``database=None`` keeps no example database, and
``deadline=None`` keeps a loaded machine from failing a correct example.
"""
import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None, max_examples=100
)
settings.load_profile("deterministic")


@pytest.fixture
def traced_peak():
    """Call ``fn(*args)`` under tracemalloc; its result and the peak bytes traced."""

    def call(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return call
