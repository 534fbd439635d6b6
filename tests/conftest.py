"""One hypothesis profile for the whole suite: the same examples on every
run, no example database on disk, and no per-example deadline, so a slow
machine neither fails a test nor changes what it draws."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
