"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Make tests/helpers.py importable as `helpers` from every test module.
sys.path.insert(0, str(Path(__file__).parent))

from repro.crypto.keys import KeyRing  # noqa: E402
from repro.types import make_servers  # noqa: E402

from helpers import ManualDagBuilder  # noqa: E402

#: A deeper example budget for the conformance suite alone
#: (``pytest tests/integration/test_conformance.py --hypothesis-profile
#: conformance-deep``); tier-1 runs on each test's own budget.
settings.register_profile("conformance-deep", max_examples=80, deadline=None)


@pytest.fixture
def servers4():
    """Four server ids (n = 3f + 1 with f = 1)."""
    return make_servers(4)


@pytest.fixture
def keyring4(servers4):
    """Key ring over four servers."""
    return KeyRing(servers4)


@pytest.fixture
def dag_builder():
    """A fresh 4-server manual DAG builder."""
    return ManualDagBuilder(4)


@pytest.fixture
def dag_builder7():
    """A 7-server manual DAG builder (f = 2)."""
    return ManualDagBuilder(7)
