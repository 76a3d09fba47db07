"""Shared test settings.

Hypothesis runs derandomized: every run draws the same examples, so the
suite's outcome never depends on the run.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")
