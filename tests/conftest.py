"""Test settings: a deterministic hypothesis profile, loaded when CI is set.

The profile derandomizes the property tests and lifts their deadline, so a
slow CI runner neither fails a test on time nor finds a new example on one
run that the next run misses.  Without hypothesis installed the property
tests skip themselves (pytest.importorskip) and this file does nothing.
"""
import os

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, deadline=None)
    if os.environ.get("CI"):
        settings.load_profile("ci")
