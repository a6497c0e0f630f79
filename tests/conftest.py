"""Shared test configuration.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples (and no example database is kept), with no
per-example deadline and a modest example count that keeps the suite fast.
"""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, database=None,
                          deadline=None, max_examples=20)
settings.load_profile("suite")
