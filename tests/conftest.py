"""Shared test settings.

Hypothesis keeps no example database: its default one lives under `.hypothesis/` in
the working directory, and a checkout the test user cannot write would turn the
warning about it into a failure. Each run draws its examples afresh, so a failure is
not replayed by the next run; its falsifying example is printed instead.
"""

from hypothesis import settings

settings.register_profile("lexsim", database=None)
settings.load_profile("lexsim")
