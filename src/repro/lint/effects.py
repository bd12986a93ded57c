"""Transitive effect inference over the call graph.

Every indexed function gets an *effect set* over a small lattice::

    {reads-global, writes-global, io, wall-clock,
     randomness, spawns-task, blocks}

plus the pseudo-effect ``dynamic-call`` for call sites the graph
cannot resolve (stored callables, parameters).  Effects are the union
of a function's *intrinsic* effects (its own global accesses and
tabled external calls) and the exported effects of every resolved
callee — computed as a fixpoint so laundering an effect through any
number of helpers cannot hide it.

``# lint: effect(...)`` annotations are **checked, not trusted**: an
annotated function exports its declared set (which is what discharges
``dynamic-call`` at a reviewed boundary like ``factory()``), but the
inferred *concrete* effects must still be a subset of the declaration
— an annotation that hides a real effect is a finding, and one that
declares effects which provably cannot occur is stale.

External calls not in the effect table are assumed effect-free: the
linter certifies *this* codebase, and the table names exactly the
stdlib surfaces that break determinism or block an event loop.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import TYPE_CHECKING

from repro.lint.callgraph import Program, _dotted, _walk_pruned

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.callgraph import FunctionInfo

#: The concrete effect lattice (a powerset; order is display order).
EFFECTS = (
    "reads-global",
    "writes-global",
    "io",
    "wall-clock",
    "randomness",
    "spawns-task",
    "blocks",
)
ALL_EFFECTS = frozenset(EFFECTS)

#: Pseudo-effect: a call site the graph could not resolve.
DYNAMIC = "dynamic-call"

_WALL_CLOCK = frozenset({"wall-clock"})
_RANDOM = frozenset({"randomness"})
_IO_BLOCKS = frozenset({"io", "blocks"})

#: Exact dotted-name -> effects.  This is the linter's one model of the
#: stdlib: the effect fixpoint and every per-file rule that judges a
#: call (clock, randomness, blocking, task spawning) read it through
#: :func:`external_effects`; anything absent is assumed effect-free.
_EXTERNAL: dict[str, frozenset[str]] = {
    "time.time": _WALL_CLOCK,
    "time.time_ns": _WALL_CLOCK,
    "time.monotonic": _WALL_CLOCK,
    "time.monotonic_ns": _WALL_CLOCK,
    "time.perf_counter": _WALL_CLOCK,
    "time.perf_counter_ns": _WALL_CLOCK,
    "time.process_time": _WALL_CLOCK,
    "time.process_time_ns": _WALL_CLOCK,
    "time.thread_time": _WALL_CLOCK,
    "time.thread_time_ns": _WALL_CLOCK,
    "time.clock_gettime": _WALL_CLOCK,
    "time.clock_gettime_ns": _WALL_CLOCK,
    "time.sleep": frozenset({"wall-clock", "blocks"}),
    "datetime.datetime.now": _WALL_CLOCK,
    "datetime.datetime.utcnow": _WALL_CLOCK,
    "datetime.datetime.today": _WALL_CLOCK,
    "datetime.date.today": _WALL_CLOCK,
    # local-timezone conversion reads host state
    "datetime.datetime.fromtimestamp": _WALL_CLOCK,
    "datetime.date.fromtimestamp": _WALL_CLOCK,
    "os.urandom": _RANDOM,
    "uuid.uuid1": _RANDOM,
    "uuid.uuid4": _RANDOM,
    "os.system": _IO_BLOCKS,
    "os.popen": _IO_BLOCKS,
    "subprocess.run": _IO_BLOCKS,
    "subprocess.call": _IO_BLOCKS,
    "subprocess.check_call": _IO_BLOCKS,
    "subprocess.check_output": _IO_BLOCKS,
    "subprocess.getoutput": _IO_BLOCKS,
    "subprocess.getstatusoutput": _IO_BLOCKS,
    "subprocess.Popen": _IO_BLOCKS,
    "asyncio.create_task": frozenset({"spawns-task"}),
    "asyncio.ensure_future": frozenset({"spawns-task"}),
    # a leading dot: that method on any receiver the resolver cannot
    # type (``loop.create_task``, ``group.create_task``)
    ".create_task": frozenset({"spawns-task"}),
    "asyncio.run": frozenset({"blocks"}),
    "threading.Thread": frozenset({"spawns-task"}),
    "socket.socket": frozenset({"io"}),
    "socket.create_connection": _IO_BLOCKS,
    # builtins
    "open": frozenset({"io"}),
    "print": frozenset({"io"}),
    "input": frozenset({"io", "blocks"}),
}


def external_effects(dotted: str) -> frozenset[str]:
    """Effects of an external callable (empty = assumed effect-free)."""
    exact = _EXTERNAL.get(dotted)
    if exact is not None:
        return exact
    if dotted.split(".")[0] == "secrets":
        return _RANDOM
    if dotted.startswith("random.") and not dotted.startswith("random.Random"):
        return _RANDOM
    return frozenset()


#: Container methods that mutate their receiver (for module globals).
MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "__setitem__",
        "__delitem__",
    }
)


def _local_names(node: ast.AST) -> tuple[set[str], set[str]]:
    """(names bound locally inside a function — the shadowing filter —,
    names it declares ``global``)."""
    names: set[str] = set()
    declared_global: set[str] = set()
    for child in _walk_pruned(node):
        if isinstance(child, ast.Global):
            declared_global.update(child.names)
        elif isinstance(child, ast.Name) and isinstance(
            child.ctx, (ast.Store, ast.Del)
        ):
            names.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (
                child.args.args
                + child.args.posonlyargs
                + child.args.kwonlyargs
                + ([child.args.vararg] if child.args.vararg else [])
                + ([child.args.kwarg] if child.args.kwarg else [])
            ):
                names.add(arg.arg)
    return names - declared_global, declared_global


class EffectAnalysis:
    """Fixpoint effect sets for every function in a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: qualname -> resolved call sites (the graph, extracted once).
        self.sites = {
            qualname: program.call_sites(fn)
            for qualname, fn in program.functions.items()
        }
        #: qualname -> effect -> (line, witness description).
        self.intrinsic: dict[str, dict[str, tuple[int, str]]] = {}
        for qualname, fn in program.functions.items():
            self.intrinsic[qualname] = self._intrinsic(fn)
        self.inferred: dict[str, frozenset[str]] = {}
        self._fixpoint()

    # -- intrinsic effects -----------------------------------------------------

    def _intrinsic(self, fn: "FunctionInfo") -> dict[str, tuple[int, str]]:
        module = self.program.modules[fn.module]
        witness: dict[str, tuple[int, str]] = {}

        def note(effect: str, line: int, description: str) -> None:
            witness.setdefault(effect, (line, description))

        for site in self.sites[fn.qualname]:
            if site.kind == "external":
                for effect in site.effects:
                    note(effect, site.line, f"call to {site.target}")
            elif site.kind == "dynamic":
                note(DYNAMIC, site.line, site.target)

        tracked = {
            name
            for name in module.mutable_globals
            if name not in module.registry_globals
        }
        if not tracked:
            return witness
        locals_, declared_global = _local_names(fn.node)
        tracked -= locals_
        tracked |= declared_global & set(module.mutable_globals)

        for node in _walk_pruned(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                    if isinstance(node, ast.AugAssign)
                    else node.targets
                )
                for target in targets:
                    root = target
                    while isinstance(root, (ast.Subscript, ast.Attribute)):
                        root = root.value
                    if isinstance(root, ast.Name) and root.id in tracked:
                        if root is target and root.id not in declared_global:
                            continue  # plain local rebind, filtered above
                        note(
                            "writes-global",
                            node.lineno,
                            f"write to module global {root.id!r}",
                        )
            if isinstance(node, ast.Call):
                parts = _dotted(node.func)
                if (
                    parts is not None
                    and len(parts) == 2
                    and parts[0] in tracked
                ):
                    effect = (
                        "writes-global"
                        if parts[1] in MUTATORS
                        else "reads-global"
                    )
                    note(
                        effect,
                        node.lineno,
                        f"{parts[1]}() on module global {parts[0]!r}",
                    )
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in tracked:
                    note(
                        "reads-global",
                        node.lineno,
                        f"read of module global {node.id!r}",
                    )
        return witness

    # -- fixpoint --------------------------------------------------------------

    def exported(self, qualname: str) -> frozenset[str]:
        """What callers see: the declaration when annotated (this is
        what discharges ``dynamic-call`` at a reviewed boundary), the
        inferred set otherwise."""
        fn = self.program.functions.get(qualname)
        if fn is not None and fn.declared_effects is not None:
            return fn.declared_effects & ALL_EFFECTS
        return self.inferred.get(qualname, frozenset())

    def _fixpoint(self) -> None:
        edges: dict[str, list[str]] = {}
        callers: dict[str, list[str]] = {}
        for qualname, sites in self.sites.items():
            targets = [s.target for s in sites if s.kind == "edge"]
            edges[qualname] = targets
            for target in targets:
                callers.setdefault(target, []).append(qualname)
        self.inferred = {
            qualname: frozenset(effects)
            for qualname, effects in self.intrinsic.items()
        }
        worklist = deque(self.sites)
        queued = set(worklist)
        while worklist:
            qualname = worklist.popleft()
            queued.discard(qualname)
            combined = set(self.intrinsic[qualname])
            for callee in edges[qualname]:
                combined |= self.exported(callee)
            new = frozenset(combined)
            if new != self.inferred[qualname]:
                self.inferred[qualname] = new
                for caller in callers.get(qualname, ()):  # re-derive callers
                    if caller not in queued:
                        queued.add(caller)
                        worklist.append(caller)

    def concrete(self, qualname: str) -> frozenset[str]:
        """Inferred effects minus the dynamic pseudo-effect."""
        return self.inferred.get(qualname, frozenset()) & ALL_EFFECTS

    # -- explanation -----------------------------------------------------------

    def explain(self, qualname: str, effect: str) -> str:
        """The shortest call chain from ``qualname`` to a witness of
        ``effect`` — the message a finding carries."""

        def short(name: str) -> str:
            return name.split(":", 1)[1] if ":" in name else name

        def location(fn: "FunctionInfo", line: int) -> str:
            return f"{self.program.modules[fn.module].display_path}:{line}"

        queue: deque[tuple[str, tuple[str, ...]]] = deque(
            [(qualname, (qualname,))]
        )
        seen = {qualname}
        while queue:
            current, path = queue.popleft()
            fn = self.program.functions[current]
            names = " → ".join(short(p) for p in path)
            hit = self.intrinsic[current].get(effect)
            if hit is not None:
                line, description = hit
                return f"{names}: {description} at {location(fn, line)}"
            if (
                current != qualname
                and fn.declared_effects is not None
                and effect in fn.declared_effects
            ):
                return (
                    f"{names}: declared effect({effect}) "
                    f"at {location(fn, fn.declared_line or fn.node.lineno)}"
                )
            for site in self.sites[current]:
                if site.kind != "edge" or site.target in seen:
                    continue
                if effect in self.exported(site.target):
                    seen.add(site.target)
                    queue.append((site.target, path + (site.target,)))
        return f"{short(qualname)}: {effect}"
