"""Deterministic hypothesis draws: every run of the suite tries the same
examples, so two versions of the code are compared on equal inputs.  Each
test keeps its own ``max_examples`` and ``deadline``."""

import pytest
from hypothesis import settings

from smolkit import _fork

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def eight_usable_cpus(monkeypatch):
    """``fork_map`` starts at most one process per usable CPU; the tests see
    eight, so those that count or need worker processes do the same on any
    host.  A test that checks the cap sets its own count."""
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 8)
