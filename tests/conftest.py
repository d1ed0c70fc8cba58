"""The one hypothesis profile of the tests: every property test draws the
same examples on every run, keeps no example database and has no deadline,
so Tier-1 stays deterministic.  A test states only its max_examples."""

from hypothesis import settings

settings.register_profile("pbtlab", derandomize=True, database=None, deadline=None)
settings.load_profile("pbtlab")
