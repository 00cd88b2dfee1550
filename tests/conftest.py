"""Hypothesis runs derandomized and without an example database, so
every run of the suite draws the same examples."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
