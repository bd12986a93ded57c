"""``repro.lint`` — an AST invariant linter for the deterministic core.

The embedding is sound only because interpretation is a *pure,
deterministic function of the DAG* (§2, §4), and the later PRs stacked
further invariants on top of that purity: byte-identical trace
exports, wall-clock strictly outside trace identity, and a layered
architecture that keeps the interpreter clean of wire concerns.
Runtime oracles alone (deepcopy trace equality, the
trace-determinism CI job) catch a violation only after it has
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
    No threads, executors or event loops outside the live transport
    seam (``repro.net.live`` / ``repro.runtime.live``).

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
    A call the effect table marks ``blocks`` in an ``async def``.
``async-hazard-task-leak``
    A ``spawns-task`` call whose result is dropped on the floor.

Every rule that judges a stdlib call reads one table,
:data:`repro.lint.effects._EXTERNAL`, through one import resolver
(:func:`repro.lint.callgraph._harvest_imports`).  The only exceptions
are each rule's reviewed ``ALLOWED_MODULES`` and the committed, empty
``lint-baseline.json``; there are no per-line suppressions.

Run it with ``python -m repro.lint src/repro`` (formats: ``text``,
``github``).
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.engine import FileContext, Finding, LintEngine, LintReport, Rule
from repro.lint.registry import RULES, rule_names

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "LintEngine",
    "LintReport",
    "RULES",
    "Rule",
    "rule_names",
]
