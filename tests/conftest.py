"""Shared test settings.

Hypothesis runs without its per-example deadline: example timings on a
loaded two-core machine vary too much for a deadline to mean anything.
"""

from hypothesis import settings

settings.register_profile("weplab", deadline=None)
settings.load_profile("weplab")
