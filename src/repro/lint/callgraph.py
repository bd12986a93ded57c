"""Project-wide call graph — the substrate for whole-program rules.

Per-file AST rules cannot see a wall-clock read laundered through a
helper in another module.  This module builds, from the single parse
the engine already did per file, a *module index* (functions, classes,
imports, mutable module-level state) and a conservative *call graph*
over it, so the effect pass in :mod:`repro.lint.effects` can run a
transitive fixpoint.

Resolution semantics (deliberately simple, documented, conservative):

* a bare-name call resolves to a module-level function or class in the
  same module, an imported name (followed into the index when it lands
  in an indexed ``repro`` module), a builtin, or — when none of those
  match (a parameter, a stored callable) — a **dynamic call**;
* ``self.m()`` resolves through the class's linearized bases across
  the index; a miss (stored callable like ``self.factory``) or an
  unresolvable base is dynamic;
* ``self.attr.m()`` resolves through the attribute-type map harvested
  from ``__init__`` (annotated parameters, ``self.x = ClassName(...)``,
  class-level annotations); an unknown attribute type makes the call
  a *value operation* — same for method calls on locals, parameters
  and call results (``self._writable("x").add(...)``) — charged only
  what the effect table lists for that method on any receiver
  (``loop.create_task`` spawns a task);
* resolved edges into ``repro.obs.*`` contribute nothing: observability
  is the sanctioned wall-clock conduit and is strictly outside trace
  identity (see PR 6), so charging its effects to callers would make
  every instrumented hot path impure by construction;
* calls to names bound by ``NewType(...)`` are identity casts — value
  operations;
* nested ``def``/``lambda`` bodies are folded into the enclosing
  function (their call sites are charged to it), and calls to the
  nested names are value operations.

Known, accepted blind spot: property getters execute code without a
``Call`` node, so attribute *access* never creates an edge.  Every
getter in the certified scope is a pure computation over ``self``.
"""

from __future__ import annotations

import ast
import builtins
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import FileContext

#: ``# lint: registry — reason`` on a module-level assignment marks an
#: import-time registry (codec dataclass registry, encode cache): a
#: deliberately mutable module global whose population is idempotent
#: and happens before any interpretation.
_REGISTRY_RE = re.compile(
    r"#\s*lint:\s*registry(?:\s*[—–:-]+\s*(?P<reason>\S.*))?\s*$"
)

#: ``# lint: effect(io, blocks) — reason`` on (or directly above) a
#: ``def`` line: a *checked* declaration, parsed here, verified in
#: :mod:`repro.lint.effects`.
_EFFECT_RE = re.compile(
    r"#\s*lint:\s*effect\(\s*(?P<effects>[a-z0-9,\s-]*?)\s*\)"
    r"(?:\s*[—–:-]+\s*(?P<reason>\S.*))?\s*$"
)

#: Module-level value constructors that make a global *mutable state*
#: (``itertools.count`` is deliberately absent: generation stamps are
#: compared only for identity/equality and never enumerated).
_MUTABLE_CALLS = frozenset(
    {
        "dict",
        "list",
        "set",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "bytearray",
    }
)

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qualname: str  #: ``module:func`` or ``module:Class.method``
    module: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Checked ``# lint: effect(...)`` declaration (None = undeclared).
    declared_effects: frozenset[str] | None = None
    declared_reason: str | None = None
    declared_line: int = 0


@dataclass
class ClassInfo:
    """One indexed class."""

    name: str
    module: str
    node: ast.ClassDef
    #: Base-class expressions as dotted names resolved through the
    #: module's import map (``"repro.protocols.base.ProcessInstance"``
    #: when resolvable, the raw source text otherwise).
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> dotted class name, harvested from annotations.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything the analyses need to know about one module."""

    name: str
    display_path: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: local name -> dotted target (module, module.attr, or class).
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level mutable containers: name -> definition line.
    mutable_globals: dict[str, int] = field(default_factory=dict)
    #: subset of mutable_globals exempted by ``# lint: registry``.
    registry_globals: dict[str, str | None] = field(default_factory=dict)
    #: names bound by ``NewType(...)`` — calls are identity casts.
    newtypes: set[str] = field(default_factory=set)


# -- call sites ---------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One resolved call out of a function."""

    kind: str  #: "edge" | "external" | "dynamic"
    line: int
    #: edge: callee qualname; external: dotted name; dynamic: description.
    target: str
    #: external only: the callee's effect set.
    effects: frozenset[str] = frozenset()


def _dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None when not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


#: Nodes that open a new function scope.
FUNCTION_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _walk_pruned(
    node: ast.AST, prune: tuple[type, ...] = (ast.ClassDef,)
) -> Iterator[ast.AST]:
    """``ast.walk`` that neither yields nor descends into ``prune``
    children (by default: nested class bodies)."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(
            child
            for child in ast.iter_child_nodes(current)
            if not isinstance(child, prune)
        )


def _resolve_relative(module: str, node: ast.ImportFrom) -> str:
    """Absolute module for a (possibly relative) ``from`` import."""
    if not node.level:
        return node.module or ""
    package = module.split(".")
    # ``from . import x`` in package module a.b.c -> package a.b
    anchor = package[: len(package) - node.level]
    base = ".".join(anchor)
    if node.module:
        return f"{base}.{node.module}" if base else node.module
    return base


def _harvest_imports(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name -> dotted target for every import in ``tree``, at any
    scope (a function-local ``import time`` still binds a clock).  The
    linter's only import resolver."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    imports[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def external_name(func: ast.expr, imports: dict[str, str]) -> str | None:
    """The dotted name a callee denotes outside this file, for lookup
    in the effect table.

    ``t.sleep`` after ``import time as t`` -> ``"time.sleep"``; a bare
    builtin -> its name; a method on a receiver whose type is unknown
    (a local, a parameter, ``self.x``, a call result) -> ``".method"``,
    which the table matches as that method on any receiver.  ``None``
    for a bare name that is neither imported nor a builtin.
    """
    parts = _dotted(func)
    if parts is not None and parts[0] in imports:
        return ".".join([imports[parts[0]]] + parts[1:])
    if isinstance(func, ast.Attribute):
        return "." + func.attr
    if isinstance(func, ast.Name) and func.id in _BUILTIN_NAMES:
        return func.id
    return None


def external_calls(
    nodes: Iterable[ast.AST], imports: dict[str, str]
) -> Iterator[tuple[ast.Call, str]]:
    """Every call among ``nodes`` with its :func:`external_name`."""
    for node in nodes:
        if isinstance(node, ast.Call):
            dotted = external_name(node.func, imports)
            if dotted is not None:
                yield node, dotted


def _effect_annotation(
    node: ast.FunctionDef | ast.AsyncFunctionDef, lines: Sequence[str]
) -> tuple[frozenset[str] | None, str | None, int]:
    """The checked ``# lint: effect(...)`` declaration for ``node``.

    Accepted placements: trailing comment on the ``def`` line, or any
    line of the contiguous comment block directly above the first
    decorator (or the ``def`` when undecorated).
    """
    candidates = [node.lineno]
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    lineno = first - 1
    while lineno >= 1 and lines[lineno - 1].lstrip().startswith("#"):
        candidates.append(lineno)
        lineno -= 1
    for lineno in candidates:
        if lineno - 1 >= len(lines):
            continue
        match = _EFFECT_RE.search(lines[lineno - 1])
        if match is None:
            continue
        names = frozenset(
            part.strip()
            for part in match.group("effects").split(",")
            if part.strip()
        )
        return names, match.group("reason"), lineno
    return None, None, 0


def _is_mutable_value(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(value, (ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        parts = _dotted(value.func)
        if parts and parts[-1] in _MUTABLE_CALLS:
            return True
    return False


def _harvest_attr_types(
    cls: ast.ClassDef, imports: dict[str, str], module: str, index_hint: set[str]
) -> dict[str, str]:
    """``self.<attr>`` -> dotted class name (best effort)."""

    def resolve_type(name: str) -> str | None:
        if name in imports:
            return imports[name]
        if name in index_hint:
            return f"{module}.{name}"
        return None

    types: dict[str, str] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if isinstance(stmt.annotation, ast.Name):
                resolved = resolve_type(stmt.annotation.id)
                if resolved:
                    types[stmt.target.id] = resolved
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        annotations: dict[str, str] = {}
        for arg in method.args.args + method.args.kwonlyargs:
            if isinstance(arg.annotation, ast.Name):
                resolved = resolve_type(arg.annotation.id)
                if resolved:
                    annotations[arg.arg] = resolved
        for node in _walk_pruned(method):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
                if isinstance(node.annotation, ast.Name):
                    resolved = resolve_type(node.annotation.id)
                    if (
                        resolved
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        types.setdefault(target.attr, resolved)
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            if isinstance(value, ast.Name) and value.id in annotations:
                types.setdefault(target.attr, annotations[value.id])
            elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                resolved = resolve_type(value.func.id)
                if resolved:
                    types.setdefault(target.attr, resolved)
    return types


def _function_info(
    ctx: "FileContext",
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    class_name: str | None,
) -> FunctionInfo:
    declared, reason, line = _effect_annotation(node, ctx.lines)
    owner = f"{class_name}." if class_name else ""
    return FunctionInfo(
        qualname=f"{ctx.module}:{owner}{node.name}",
        module=ctx.module,
        class_name=class_name,
        node=node,
        declared_effects=declared,
        declared_reason=reason,
        declared_line=line,
    )


def build_module_info(ctx: "FileContext") -> ModuleInfo:
    """Index one parsed file."""
    info = ModuleInfo(name=ctx.module, display_path=ctx.display_path)
    info.imports = _harvest_imports(ctx.tree, ctx.module)
    class_names = {
        stmt.name for stmt in ctx.tree.body if isinstance(stmt, ast.ClassDef)
    }
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = _function_info(ctx, stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            bases = []
            for base in stmt.bases:
                parts = _dotted(base)
                if parts is None:
                    bases.append(ast.unparse(base))
                    continue
                head = parts[0]
                if head in info.imports:
                    parts = info.imports[head].split(".") + parts[1:]
                elif head in class_names:
                    parts = ctx.module.split(".") + parts
                bases.append(".".join(parts))
            cls = ClassInfo(
                name=stmt.name, module=ctx.module, node=stmt, bases=tuple(bases)
            )
            cls.attr_types = _harvest_attr_types(
                stmt, info.imports, ctx.module, class_names
            )
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[member.name] = _function_info(ctx, member, stmt.name)
            info.classes[stmt.name] = cls
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if value is None:
                continue
            is_newtype = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "NewType"
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if is_newtype:
                    info.newtypes.add(target.id)
                elif _is_mutable_value(value):
                    info.mutable_globals[target.id] = stmt.lineno
                    line = (
                        ctx.lines[stmt.lineno - 1]
                        if stmt.lineno - 1 < len(ctx.lines)
                        else ""
                    )
                    match = _REGISTRY_RE.search(line)
                    if match is not None:
                        info.registry_globals[target.id] = match.group("reason")
    return info


class Program:
    """The whole-program view: index + class hierarchy + call graph."""

    def __init__(self, contexts: Sequence["FileContext"]) -> None:
        self.modules: dict[str, ModuleInfo] = {
            ctx.module: build_module_info(ctx) for ctx in contexts
        }
        #: dotted class name -> ClassInfo
        self.class_index: dict[str, ClassInfo] = {}
        for module in self.modules.values():
            for cls in module.classes.values():
                self.class_index[f"{module.name}.{cls.name}"] = cls
        #: qualname -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        for module in self.modules.values():
            self.functions.update(
                {f.qualname: f for f in module.functions.values()}
            )
            for cls in module.classes.values():
                self.functions.update(
                    {f.qualname: f for f in cls.methods.values()}
                )
        self._mro_cache: dict[str, tuple[list[ClassInfo], bool]] = {}
        self._effects = None

    # -- hierarchy -------------------------------------------------------------

    def linearize(self, cls: ClassInfo) -> tuple[list[ClassInfo], bool]:
        """Depth-first left-to-right base linearization.

        Returns ``(classes, complete)`` where ``complete`` is False
        when some base could not be found in the index (external or
        unlinted code) — method resolution through an incomplete chain
        must fall back to *dynamic*.
        """
        key = f"{cls.module}.{cls.name}"
        cached = self._mro_cache.get(key)
        if cached is not None:
            return cached
        self._mro_cache[key] = ([cls], False)  # cycle guard
        order: list[ClassInfo] = [cls]
        complete = True
        for base in cls.bases:
            base_cls = self.class_index.get(base)
            if base_cls is None and "." not in base:
                base_cls = self.class_index.get(f"{cls.module}.{base}")
            if base_cls is None:
                if base.split(".")[-1] != "object":
                    complete = False
                continue
            sub_order, sub_complete = self.linearize(base_cls)
            complete = complete and sub_complete
            for entry in sub_order:
                if entry not in order:
                    order.append(entry)
        self._mro_cache[key] = (order, complete)
        return order, complete

    def subclasses_named(self, base_name: str, cls: ClassInfo) -> bool:
        """True when ``cls`` transitively extends a base whose (dotted)
        name ends with ``base_name`` — the name-based fallback that
        keeps fixture protocols outside the linted tree in scope."""
        order, _complete = self.linearize(cls)
        for entry in order:
            for base in entry.bases:
                if base.split(".")[-1] == base_name:
                    return True
        return False

    def resolve_method(
        self, cls: ClassInfo, name: str, *, skip_self: bool = False
    ) -> FunctionInfo | None:
        order, _complete = self.linearize(cls)
        for entry in order[1 if skip_self else 0 :]:
            method = entry.methods.get(name)
            if method is not None:
                return method
        return None

    def attr_type(self, cls: ClassInfo, attr: str) -> ClassInfo | None:
        order, _complete = self.linearize(cls)
        for entry in order:
            dotted = entry.attr_types.get(attr)
            if dotted is not None:
                return self.class_index.get(dotted)
        return None

    # -- call extraction -------------------------------------------------------

    def call_sites(self, function: FunctionInfo) -> list[CallSite]:
        """Every call out of ``function``, resolved (cached per run)."""
        module = self.modules[function.module]
        cls = module.classes.get(function.class_name or "")
        nested: set[str] = set()
        for node in _walk_pruned(function.node):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not function.node
            ):
                nested.add(node.name)
        sites: list[CallSite] = []
        for node in _walk_pruned(function.node):
            if not isinstance(node, ast.Call):
                continue
            site = self._resolve_call(node, module, cls, nested)
            if site is not None:
                sites.append(site)
        return sites

    def _edge(self, target: FunctionInfo, line: int) -> CallSite | None:
        if target.module.startswith("repro.obs"):
            return None  # sanctioned conduit, outside trace identity
        return CallSite(kind="edge", line=line, target=target.qualname)

    def _constructor_site(
        self, dotted_class: str, line: int
    ) -> CallSite | None:
        cls = self.class_index.get(dotted_class)
        if cls is None:
            return None
        init = self.resolve_method(cls, "__init__")
        if init is None:
            return None  # dataclass / default constructor: a value op
        return self._edge(init, line)

    def _resolve_call(
        self,
        node: ast.Call,
        module: ModuleInfo,
        cls: ClassInfo | None,
        nested: set[str],
    ) -> CallSite | None:
        func = node.func
        line = node.lineno
        if not isinstance(func, (ast.Name, ast.Attribute)):
            return None  # subscript / call-result callee: value op
        parts = _dotted(func)
        if isinstance(func, ast.Name):
            name = func.id
            if name in nested or name in module.newtypes:
                return None  # body already folded in / identity cast
            if name in module.functions:
                return self._edge(module.functions[name], line)
            if name in module.classes:
                return self._constructor_site(f"{module.name}.{name}", line)
        elif (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            if cls is None:
                return None
            target = self.resolve_method(cls, func.attr, skip_self=True)
            if target is None:
                return CallSite(
                    kind="dynamic",
                    line=line,
                    target=f"super().{func.attr} not found in indexed bases",
                )
            return self._edge(target, line)
        elif parts is not None and parts[0] == "self":
            if cls is None:
                return CallSite(
                    kind="dynamic", line=line, target="self call outside a class"
                )
            if len(parts) == 2:  # self.m()
                target = self.resolve_method(cls, func.attr)
                if target is not None:
                    return self._edge(target, line)
                _order, complete = self.linearize(cls)
                if not complete:
                    # The method may live on a base outside this lint
                    # run (test fixtures subclassing the real
                    # ProcessInstance): assume effect-free — the base
                    # itself is certified by the full-tree run.
                    return None
                return CallSite(
                    kind="dynamic",
                    line=line,
                    target=f"self.{func.attr} is not a method of any indexed base",
                )
            attr_cls = self.attr_type(cls, parts[1]) if len(parts) == 3 else None
            if attr_cls is not None:  # self.attr.m() on a known type
                target = self.resolve_method(attr_cls, func.attr)
                return None if target is None else self._edge(target, line)
        elif parts is not None and len(parts) == 2 and parts[0] in module.classes:
            target = self.resolve_method(module.classes[parts[0]], func.attr)
            return None if target is None else self._edge(target, line)
        dotted = external_name(func, module.imports)
        if dotted is None:
            return CallSite(
                kind="dynamic",
                line=line,
                target=f"call through unresolved name {ast.unparse(func)!r}",
            )
        return self._resolve_dotted(dotted, line)

    def _resolve_dotted(self, dotted: str, line: int) -> CallSite | None:
        from repro.lint.effects import external_effects

        if dotted.startswith("repro.obs"):
            return None  # sanctioned conduit
        if dotted.startswith("repro."):
            # Longest indexed module prefix, then attribute path within.
            parts = dotted.split(".")
            for split in range(len(parts) - 1, 0, -1):
                module_name = ".".join(parts[:split])
                target_module = self.modules.get(module_name)
                if target_module is None:
                    continue
                rest = parts[split:]
                if len(rest) == 1:
                    name = rest[0]
                    if name in target_module.functions:
                        return self._edge(target_module.functions[name], line)
                    if name in target_module.classes:
                        return self._constructor_site(
                            f"{module_name}.{name}", line
                        )
                    if name in target_module.newtypes:
                        return None
                    return CallSite(
                        kind="dynamic",
                        line=line,
                        target=f"{dotted} is not an indexed function or class",
                    )
                if len(rest) == 2 and rest[0] in target_module.classes:
                    target = self.resolve_method(
                        target_module.classes[rest[0]], rest[1]
                    )
                    if target is not None:
                        return self._edge(target, line)
                return None  # deeper attribute paths: value op
            return CallSite(
                kind="dynamic",
                line=line,
                target=f"{dotted} resolves outside the linted file set",
            )
        effects = external_effects(dotted)
        if effects:
            return CallSite(
                kind="external", line=line, target=dotted, effects=effects
            )
        return None  # untabled external call: assumed effect-free

    # -- effects (lazy) --------------------------------------------------------

    @property
    def effects(self):
        """The fixpoint effect analysis (built on first use)."""
        if self._effects is None:
            from repro.lint.effects import EffectAnalysis

            self._effects = EffectAnalysis(self)
        return self._effects
