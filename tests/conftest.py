"""Suite-wide settings.

Hypothesis runs the same fixed set of examples on every run: ``derandomize``
fixes the examples, ``database=None`` keeps no example database, and
``deadline=None`` keeps a loaded machine from failing a correct example.
"""
from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None, max_examples=100
)
settings.load_profile("deterministic")
