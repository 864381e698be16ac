"""Root fixtures shared by the top-level test modules, plus hypothesis
profiles.

Profiles: the implicit default keeps tier-1 fast; ``nightly`` raises the
example budgets roughly 5x for the scheduled CI lane.  Select with
``HYPOTHESIS_PROFILE=nightly``; failures reproduce via the printed blob
or ``--hypothesis-seed`` (see .github/workflows/ci.yml).
"""

import os

import pytest
from hypothesis import settings

from repro.api import load_curated_kb

# 200 examples: the columnar differential suite's floor per profile.
settings.register_profile(
    "ci", deadline=None, print_blob=True, max_examples=200
)
settings.register_profile(
    "nightly",
    deadline=None,
    print_blob=True,
    max_examples=1000,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session")
def kb():
    return load_curated_kb()
