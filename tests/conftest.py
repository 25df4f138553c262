"""Hypothesis profiles.  Tier-1 runs the small default; CI also runs
the framing fuzz with ``--hypothesis-profile ci``.  Tests that pin
``max_examples`` in their own ``@settings`` are unaffected."""

from hypothesis import settings

settings.register_profile("tier1", max_examples=50)
settings.register_profile("ci", max_examples=1000)
settings.load_profile("tier1")
