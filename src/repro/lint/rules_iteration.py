"""The deterministic-iteration rule: no raw ``set`` order in canonical output.

Python ``set`` iteration order depends on insertion history and hash
randomization — it is exactly the kind of ambient nondeterminism that
must never reach a canonical encoding, a trace export, or any
``__iter__``-order-sensitive return in the DAG layer, because those
bytes are compared across servers (fingerprints) and across runs
(trace determinism CI).  Dict iteration is insertion-ordered and
therefore *is* deterministic, as long as insertions were; sets are the
problem.

Static typing is out of scope, so the rule is deliberately
conservative: it flags iteration over expressions that are
*syntactically* sets (literals, ``set(...)``/``frozenset(...)`` calls,
set operators) plus locals assigned from such expressions in the same
scope.  Attribute-typed sets it cannot see — the runtime trace
determinism CI remains the backstop for those — but every flagged site
is a real unordered iteration.  The idiomatic fix is ``sorted(...)``,
which the rule recognizes and never flags; order-insensitive
reductions (``sum``/``min``/``max``/``any``/``all``/``len``) and
set-producing comprehensions are exempt because their results do not
depend on iteration order.

Scoped to the modules whose outputs are canonical by contract:
``repro.dag.*``, ``repro.obs.export`` and ``repro.storage.state_codec``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.callgraph import FUNCTION_SCOPES, _walk_pruned
from repro.lint.engine import FileContext, Finding, Rule

#: Calls whose result does not depend on the argument's iteration order.
ORDER_INSENSITIVE = frozenset(
    {"sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len"}
)

#: Set methods returning another set (propagate set-ness through locals).
_SET_PRODUCERS = frozenset(
    {"copy", "union", "intersection", "difference", "symmetric_difference"}
)

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.expr, tracked: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in tracked
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_PRODUCERS
            and _is_set_expr(node.func.value, tracked)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_set_expr(node.left, tracked) or _is_set_expr(node.right, tracked)
    return False


def _tracked_locals(scope: ast.AST) -> set[str]:
    """Names assigned a syntactic set expression in ``scope`` itself.

    Flow-insensitive on purpose: a name that held a set at any point is
    suspect for the whole scope.  Two passes propagate through one
    level of set-from-set assignment chains.  Function parameters are
    not typed, so sets arriving as arguments are invisible — the rule
    is conservative by design (the runtime trace-determinism CI backs
    up what static analysis cannot see).
    """
    tracked: set[str] = set()
    for _ in range(2):
        # Each function is analysed against its own locals only.
        for node in _walk_pruned(scope, FUNCTION_SCOPES):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _is_set_expr(
                    node.value, tracked
                ):
                    tracked.add(target.id)
    return tracked


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module itself plus every function, analyzed independently."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class DeterministicIteration(Rule):
    """Unsorted set iteration must not feed order-sensitive output."""

    name = "deterministic-iteration"
    summary = "no raw set iteration in dag/, obs/export, storage/state_codec"

    MODULES = ("repro.obs.export", "repro.storage.state_codec")
    PREFIXES = ("repro.dag.", )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module not in self.MODULES and not any(
            ctx.module.startswith(p) or ctx.module == p.rstrip(".")
            for p in self.PREFIXES
        ):
            return
        for scope in _scopes(ctx.tree):
            tracked = _tracked_locals(scope)
            exempt = self._exempt_comprehensions(scope)
            for node in _walk_pruned(scope, FUNCTION_SCOPES):
                yield from self._check_node(ctx, node, tracked, exempt)

    @staticmethod
    def _exempt_comprehensions(scope: ast.AST) -> set[int]:
        """Comprehensions passed directly to order-insensitive reducers."""
        exempt: set[int] = set()
        for node in _walk_pruned(scope, FUNCTION_SCOPES):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ORDER_INSENSITIVE
            ):
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                        exempt.add(id(arg))
        return exempt

    def _check_node(
        self,
        ctx: FileContext,
        node: ast.AST,
        tracked: set[str],
        exempt: set[int],
    ) -> Iterator[Finding]:
        fix = "iterate sorted(...) so every replica sees one order"
        if isinstance(node, ast.For) and _is_set_expr(node.iter, tracked):
            yield self.finding(
                ctx, node.iter, f"for-loop over a set in unsorted order; {fix}"
            )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if id(node) in exempt:
                return
            for generator in node.generators:
                if _is_set_expr(generator.iter, tracked):
                    yield self.finding(
                        ctx,
                        generator.iter,
                        f"comprehension over a set in unsorted order; {fix}",
                    )
        elif isinstance(node, ast.Call):
            # list(s)/tuple(s)/enumerate(s) and sep.join(s) freeze an
            # arbitrary order into an ordered value.
            order_freezers: tuple[str, ...] = ("list", "tuple", "enumerate")
            name = (
                node.func.id
                if isinstance(node.func, ast.Name)
                else node.func.attr
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if (
                isinstance(node.func, ast.Name) and name in order_freezers
            ) or (isinstance(node.func, ast.Attribute) and name == "join"):
                for arg in node.args:
                    if _is_set_expr(arg, tracked):
                        yield self.finding(
                            ctx,
                            arg,
                            f"{name}() freezes a set's unsorted order; {fix}",
                        )
