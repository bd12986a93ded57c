"""Whole-program purity rules: the machine-checked precondition for
the ROADMAP's sharded interpreter.

``handler-purity``
    The paper's embedding is sound because interpretation is a pure,
    deterministic function of the DAG (§2, §4): a server interprets a
    block by feeding its messages to protocol handlers, and two
    servers must compute *identical* state from identical blocks.  The
    parallel-interpretation plan sharpens this to a scheduling
    precondition — disjoint instances may interpret concurrently only
    if handlers touch nothing but ``(self, message)``.  This rule
    certifies every concrete protocol's ``on_request``/``on_message``
    handlers, and the interpreter's Algorithm-2 core
    (``Interpreter._execute``), as having an *empty* transitive effect
    set: no global reads or writes, no I/O, no wall clock, no
    randomness, no task spawning, no blocking — and no unresolved
    dynamic calls, because an effect the analysis cannot see is an
    effect it cannot rule out.  A violation reports the full call
    chain from the handler to the witnessing site.

``effect-annotation``
    Validates every ``# lint: effect(...)`` declaration: the reason is
    mandatory, the effect names must exist, the inferred concrete
    effects must be a subset of the declaration (an annotation that
    hides a real effect is a lie), and a declaration that neither
    covers a dynamic call nor matches a real effect is stale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.effects import ALL_EFFECTS, DYNAMIC, EFFECTS
from repro.lint.engine import ProgramRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.callgraph import FunctionInfo, Program
    from repro.lint.engine import Finding

#: The root of the protocol hierarchy; matched by name so fixture
#: protocols outside the linted tree (tests, CI smoke) stay in scope.
_PROTOCOL_BASE = "ProcessInstance"

#: The handler surface the interpreter dispatches into (base.py's
#: ``step_request`` / ``step_message``).
_HANDLER_NAMES = ("on_request", "on_message")

#: The interpreter's Algorithm-2 core: (module, class, method).
_INTERPRETER_CORE = ("repro.interpret.interpreter", "Interpreter", "_execute")


def _certified_functions(
    program: "Program",
) -> Iterator[tuple[str, "FunctionInfo"]]:
    """Every (description, function) the purity contract covers."""
    seen: set[str] = set()
    for module in program.modules.values():
        for cls in module.classes.values():
            if not program.subclasses_named(_PROTOCOL_BASE, cls):
                continue
            for handler in _HANDLER_NAMES:
                fn = program.resolve_method(cls, handler)
                if fn is None or fn.qualname in seen:
                    continue
                seen.add(fn.qualname)
                yield f"handler {fn.class_name}.{handler}", fn
    core_module, core_class, core_method = _INTERPRETER_CORE
    interpreter = program.modules.get(core_module)
    if interpreter is not None:
        cls = interpreter.classes.get(core_class)
        fn = cls.methods.get(core_method) if cls is not None else None
        if fn is not None and fn.qualname not in seen:
            yield f"interpreter core {core_class}.{core_method}", fn


class HandlerPurity(ProgramRule):
    name = "handler-purity"
    summary = (
        "protocol handlers and the interpreter core must be pure "
        "functions of (self, message) — transitively effect-free"
    )

    def check_program(self, program: "Program") -> Iterable["Finding"]:
        effects = program.effects
        for description, fn in _certified_functions(program):
            inferred = effects.inferred.get(fn.qualname, frozenset())
            path = program.modules[fn.module].display_path
            for effect in EFFECTS:
                if effect not in inferred:
                    continue
                yield self.finding_at(
                    path=path,
                    line=fn.node.lineno,
                    col=fn.node.col_offset + 1,
                    message=(
                        f"{description} is not a pure function of "
                        f"(self, message) — {effect} via "
                        f"{effects.explain(fn.qualname, effect)}"
                    ),
                )
            if DYNAMIC in inferred:
                yield self.finding_at(
                    path=path,
                    line=fn.node.lineno,
                    col=fn.node.col_offset + 1,
                    message=(
                        f"{description} reaches a call the analysis "
                        f"cannot resolve — "
                        f"{effects.explain(fn.qualname, DYNAMIC)}; "
                        "declare the boundary with "
                        "'# lint: effect(...) — reason' if it is pure"
                    ),
                )


class EffectAnnotation(ProgramRule):
    name = "effect-annotation"
    summary = (
        "# lint: effect(...) declarations are checked: reason required, "
        "inferred effects must fit, stale declarations flagged"
    )

    def check_program(self, program: "Program") -> Iterable["Finding"]:
        effects = program.effects
        for qualname, fn in program.functions.items():
            if fn.declared_effects is None:
                continue
            path = program.modules[fn.module].display_path
            line = fn.declared_line or fn.node.lineno
            if fn.declared_reason is None:
                yield self.finding_at(
                    path=path,
                    line=line,
                    message=(
                        "effect declaration without a reason; write "
                        "'# lint: effect(...) — why the boundary is sound'"
                    ),
                )
            unknown = fn.declared_effects - ALL_EFFECTS
            if unknown:
                yield self.finding_at(
                    path=path,
                    line=line,
                    message=(
                        f"unknown effect name(s) {', '.join(sorted(unknown))}; "
                        f"the lattice is: {', '.join(EFFECTS)}"
                    ),
                )
            declared = fn.declared_effects & ALL_EFFECTS
            concrete = effects.concrete(qualname)
            hidden = concrete - declared
            if hidden:
                worst = sorted(hidden)[0]
                yield self.finding_at(
                    path=path,
                    line=line,
                    message=(
                        f"declaration hides real effect(s) "
                        f"{', '.join(sorted(hidden))} — "
                        f"{effects.explain(qualname, worst)}"
                    ),
                )
            dynamic = DYNAMIC in effects.inferred.get(qualname, frozenset())
            if declared > concrete and not dynamic:
                yield self.finding_at(
                    path=path,
                    line=line,
                    message=(
                        "stale declaration: effect(s) "
                        f"{', '.join(sorted(declared - concrete))} cannot "
                        "occur and no dynamic call needs discharging; "
                        "delete or tighten the annotation"
                    ),
                )
