"""Suite-wide settings: every hypothesis run is reproducible.

The ``tier1`` profile draws each test's examples from a seed fixed by the
test itself (``derandomize``) and keeps no example database, so a run
draws the same examples on every machine and every rerun. Each
``@settings`` keeps its own example count on top of it.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
