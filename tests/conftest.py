"""Deterministic hypothesis draws: every run of the suite tries the same
examples, so two versions of the code are compared on equal inputs.  Each
test keeps its own ``max_examples`` and ``deadline``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
