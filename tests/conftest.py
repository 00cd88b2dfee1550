"""Hypothesis runs derandomized and without an example database, so
every run of the suite draws the same examples.

The same examples only while the library stays the same, though:
Hypothesis (6.155 here) mixes the literal constants of the local,
non-test modules it finds loaded into its draws.  An edit anywhere in
``src/`` can therefore reshuffle the examples of every property test.
Rows a property test must cover are pinned with ``@example``.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
