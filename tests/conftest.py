"""Hypothesis profiles.  ``pytest --hypothesis-profile=ci`` runs every
property test on a fixed, derandomized set of examples, so a CI run is
reproducible; without the flag Hypothesis keeps its default profile."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
