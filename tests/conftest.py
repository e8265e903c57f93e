"""Shared test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run, have no wall-clock
# deadline (timings on a shared machine vary widely) and write no example
# database into the work tree.
settings.register_profile("qfridge", deadline=None, derandomize=True, database=None)
settings.load_profile("qfridge")
