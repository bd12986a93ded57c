"""Fuzzing of node status parsing, seeded from the golden status.

``LiveCluster`` polls each node's ``<server>.status.json`` and drops a
status it cannot parse (a torn read), catching exactly
:class:`ScenarioError` and :class:`ValueError`.  Whatever the text,
``NodeStatus.from_json`` returns a status or raises one of those two —
never any other exception.  The damage is applied to the committed
``docs/node-status.json``: every truncation, single-character edits,
and each field replaced by a value of another JSON type.
"""

import json
import random
from pathlib import Path

import pytest

from repro.errors import ScenarioError
from repro.runtime.live.node import NodeStatus

GOLDEN = Path(__file__).parent.parent / "golden" / "docs" / "node-status.json"

#: One value of each JSON type (and shape) a field may be replaced by.
VALUES = (None, True, 0, -7, 1.5, 2.0, "x", "12", [], [1], {}, {"tx-0": "1"})


@pytest.fixture(scope="module")
def golden() -> str:
    return GOLDEN.read_text(encoding="utf-8")


@pytest.fixture
def parses():
    """Parses a status text; fails on any exception but the two the
    poll catches."""
    counts = {"decoded": 0, "ScenarioError": 0, "ValueError": 0}

    def check(text: str) -> None:
        try:
            NodeStatus.from_json(text)
        except (ScenarioError, ValueError) as exc:
            kind = "ScenarioError" if isinstance(exc, ScenarioError) else "ValueError"
            counts[kind] += 1
            return
        counts["decoded"] += 1

    check.counts = counts
    return check


def test_the_golden_status_decodes(golden, parses):
    parses(golden)
    assert parses.counts["decoded"] == 1


def test_every_truncation(golden, parses):
    for cut in range(len(golden)):
        parses(golden[:cut])
    # Only the whole object is an object.
    assert parses.counts == {"decoded": 0, "ScenarioError": len(golden), "ValueError": 0}


def test_single_character_edits(golden, parses):
    rng = random.Random(20261018)
    alphabet = '{}[]:,"-.0123456789eEtrufalsn xs\\'
    for _ in range(1000):
        at = rng.randrange(len(golden))
        parses(golden[:at] + rng.choice(alphabet) + golden[at + 1 :])
    # An edit inside a number or a string may still decode.
    assert parses.counts == {"decoded": 146, "ScenarioError": 854, "ValueError": 0}


def test_each_field_replaced_by_a_value_of_another_type(golden, parses):
    document = json.loads(golden)
    for field, original in document.items():
        for value in VALUES:
            if type(value) is type(original):
                continue
            parses(json.dumps({**document, field: value}))
    # No writer emits a number as a string ("12") or an int as a whole
    # float (2.0), so neither is read as an int: nothing of the wrong
    # type decodes.
    assert parses.counts["decoded"] == 0
