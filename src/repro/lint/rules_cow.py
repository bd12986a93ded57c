"""The cow-barrier rule: protocol state mutations go through barriers.

PR 5's structurally-shared instance states make ``fork()`` O(fields) by
*sharing* containers between a parent annotation and its children; the
soundness condition is that every mutation of shared state first
privatizes the touched container via
:meth:`~repro.protocols.base.ProcessInstance._writable` /
:meth:`~repro.protocols.base.ProcessInstance._writable_entry`.  A
direct ``self._votes.add(x)`` writes through into sibling forks and
silently corrupts the paper's §4 equivocation-split semantics — the
deepcopy reference catches it only when a test happens to fork over
the mutated container.  This rule proves the discipline at parse time.

What counts as a violation (inside ``repro.protocols`` classes derived
from ``ProcessInstance``, outside ``__init__``/``fork``):

* a mutating method call rooted at ``self.<attr>``:
  ``self._votes.add(...)``, ``self._buckets[k].append(...)``;
* a subscript store or delete rooted at ``self.<attr>``:
  ``self._prepared[v] = x``, ``self._slots[k] += 1``, ``del self._m[k]``.

What does not:

* rebinding a scalar — ``self.total += amount``, ``self.phase = 1`` —
  which is automatically generation-private (the documented protocol
  author rule; augmented assignment on a *bare* attribute is treated
  as a scalar rebind, so keep containers out of bare ``+=``);
* mutating a local obtained from a barrier:
  ``self._writable_entry("_votes", v, set).add(sender)``;
* the framework's own bookkeeping attrs (``ctx``, ``_gen``, ``_cells``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint._ast_util import self_attr_root
from repro.lint.engine import FileContext, Finding
from repro.lint.registry import Rule, register

#: Container methods that mutate their receiver in place.
MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
        "__setitem__",
        "__delitem__",
        "difference_update",
        "intersection_update",
        "symmetric_difference_update",
    }
)

#: Framework bookkeeping, mirroring base.INTERNAL_STATE_ATTRS (kept as
#: a literal so the linter stays importable without the protocol layer).
EXEMPT_ATTRS = frozenset({"ctx", "_gen", "_cells"})

#: Methods where mutation is pre-fork by construction: ``__init__``
#: builds the genesis containers this generation owns outright, and
#: ``fork`` *is* the sharing machinery.
EXEMPT_METHODS = frozenset({"__init__", "fork", "__init_subclass__"})


def _protocol_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Classes deriving (transitively, within the file) from
    ``ProcessInstance``."""
    known = {"ProcessInstance"}
    # Two passes pick up B(A(ProcessInstance)) declared in either order.
    for _ in range(2):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name in known:
                continue
            for base in node.bases:
                name = base.id if isinstance(base, ast.Name) else (
                    base.attr if isinstance(base, ast.Attribute) else None
                )
                if name in known:
                    known.add(node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in known:
            if node.name != "ProcessInstance":
                yield node


@register
class CowBarrier(Rule):
    """Shared protocol state is mutated only through the write barriers."""

    name = "cow-barrier"
    summary = "protocol self.<attr> mutations go through _writable/_writable_entry"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.module.startswith("repro.protocols"):
            return
        for klass in _protocol_classes(ctx.tree):
            for method in klass.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name in EXEMPT_METHODS:
                    continue
                yield from self._check_method(ctx, klass, method)

    def _check_method(
        self, ctx: FileContext, klass: ast.ClassDef, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        hint = (
            "mutate via self._writable(...)/" "self._writable_entry(...) "
            "so forked siblings keep private state"
        )
        for node in ast.walk(method):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATORS:
                    root = self_attr_root(node.func.value)
                    if root is not None and root not in EXEMPT_ATTRS:
                        yield self.finding(
                            ctx,
                            node,
                            f"{klass.name}.{method.name} mutates shared "
                            f"state self.{root} with .{node.func.attr}(); {hint}",
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in self._flatten(targets):
                    if isinstance(target, ast.Subscript):
                        root = self_attr_root(target)
                        if root is not None and root not in EXEMPT_ATTRS:
                            yield self.finding(
                                ctx,
                                target,
                                f"{klass.name}.{method.name} stores into "
                                f"shared state self.{root}[...]; {hint}",
                            )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        root = self_attr_root(target)
                        if root is not None and root not in EXEMPT_ATTRS:
                            yield self.finding(
                                ctx,
                                target,
                                f"{klass.name}.{method.name} deletes from "
                                f"shared state self.{root}[...]; {hint}",
                            )

    @staticmethod
    def _flatten(targets: list[ast.expr]) -> Iterator[ast.expr]:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from CowBarrier._flatten(list(target.elts))
            elif isinstance(target, ast.Starred):
                yield target.value
            else:
                yield target
