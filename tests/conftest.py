"""Hypothesis runs derandomized and without a per-example deadline, so
property tests are reproducible and do not flake on slow or shared machines."""

from hypothesis import settings

settings.register_profile("fpforge", derandomize=True, deadline=None)
settings.load_profile("fpforge")
