"""The suite's one Hypothesis profile: the same examples on every run, so
no run time or outcome varies; no example database, no deadline."""

from hypothesis import settings

settings.register_profile("friendlab", deadline=None, derandomize=True, database=None)
settings.load_profile("friendlab")
