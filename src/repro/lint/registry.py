"""The shipped rules: one place that knows every invariant.

The CLI's ``--list-rules``, ``--select`` and ``--profile`` read this
tuple, and the engine runs it when no rule set is given.
"""

from __future__ import annotations

from repro.lint.engine import Rule
from repro.lint.rules_async import AsyncBlockingCall, AsyncStaleWrite, AsyncTaskLeak
from repro.lint.rules_determinism import (
    NoPickle,
    NoThreadNoAsyncio,
    NoWallClock,
    SeededRandomnessOnly,
)
from repro.lint.rules_iteration import DeterministicIteration
from repro.lint.rules_layering import ImportLayering
from repro.lint.rules_purity import EffectAnnotation, HandlerPurity

RULES: tuple[Rule, ...] = (
    NoWallClock(),
    SeededRandomnessOnly(),
    NoPickle(),
    DeterministicIteration(),
    ImportLayering(),
    NoThreadNoAsyncio(),
    HandlerPurity(),
    EffectAnnotation(),
    AsyncStaleWrite(),
    AsyncBlockingCall(),
    AsyncTaskLeak(),
)

#: Rule name -> rule, in :data:`RULES` order.
BY_NAME: dict[str, Rule] = {rule.name: rule for rule in RULES}


def rule_names() -> list[str]:
    return list(BY_NAME)
