"""``repro.lint`` — an AST invariant linter for the deterministic core.

The embedding is sound only because interpretation is a *pure,
deterministic function of the DAG* (§2, §4), and the later PRs stacked
further invariants on top of that purity: copy-on-write write barriers
in every protocol, byte-identical trace exports, wall-clock strictly
outside trace identity, and a layered architecture that keeps the
interpreter clean of wire concerns.  Until now those invariants were
enforced only by *runtime* oracles (deepcopy trace equality, the
trace-determinism CI job) which catch a violation after it has already
corrupted a run.  This package proves the cheap-to-prove half of each
invariant **at parse time**, before any code executes.

Shipped rules (see the ``rules_*`` modules for the full contracts):

``no-wall-clock``
    ``time``/``datetime`` clock reads are forbidden outside
    :mod:`repro.obs.metrics` (the one sanctioned conduit) and the
    scenario runner.
``seeded-randomness-only``
    ``random.Random(seed)`` is fine; module-level ``random.*``,
    ``os.urandom``, ``secrets`` and friends are not.
``cow-barrier``
    Inside :mod:`repro.protocols`, mutations of ``self.<attr>``
    containers must go through ``_writable`` / ``_writable_entry``.
``no-pickle``
    Persistence is canonical-codec only (PR 1's design guarantee).
``deterministic-iteration``
    Unsorted ``set`` iteration must not feed order-sensitive output in
    the canonical-encoding / trace-export modules.
``import-layering``
    Module-level imports must follow the architecture DAG
    (``dag`` imports nothing above it, ``protocols`` never imports
    ``net``/``storage``/``scenario``, ``obs`` never imports
    ``scenario``, ...).
``no-thread-no-asyncio``
    No threads, executors or event loops in the deterministic core
    until the transport seam lands.

Whole-program rules (engine phase two: one shared module index, call
graph and effect fixpoint over every linted file — see
:mod:`repro.lint.callgraph` / :mod:`repro.lint.effects`):

``handler-purity``
    Every concrete protocol's ``on_request``/``on_message`` handlers
    and the interpreter's Algorithm-2 core must have an *empty*
    transitive effect set over {reads-global, writes-global, io,
    wall-clock, randomness, spawns-task, blocks} — the machine-checked
    precondition for the ROADMAP's sharded parallel interpreter.
``effect-annotation``
    ``# lint: effect(...)`` declarations are checked, not trusted.

Async-hazard rules for the live layer (per file):

``async-hazard-stale-write``
    ``self`` state assigned across an ``await`` without re-validation.
``async-hazard-blocking-call``
    ``time.sleep`` / ``subprocess`` / sync socket I/O in ``async def``.
``async-hazard-task-leak``
    ``create_task``/``ensure_future`` results dropped on the floor.

Findings are suppressed per line with::

    something_flagged()  # lint: allow(rule-name) — why this is sound

A suppression without a reason is itself a finding (``bare-allow``),
and a suppression that suppresses nothing is too (``unused-allow``) —
annotations must stay load-bearing.  A committed baseline file
(``lint-baseline.json``, kept **empty**) exists so that any future
grandfathering is an explicit, reviewed diff.

Run it with ``python -m repro.lint src/repro`` (formats: ``text``,
``json``, ``github``).
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.engine import FileContext, Finding, LintEngine, LintReport
from repro.lint.registry import Rule, all_rules, rule_names

# Importing the rule modules registers every shipped rule.
from repro.lint import (  # noqa: F401  (imported for registration side effect)
    rules_async,
    rules_cow,
    rules_determinism,
    rules_iteration,
    rules_layering,
    rules_purity,
)

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "LintEngine",
    "LintReport",
    "Rule",
    "all_rules",
    "rule_names",
]
