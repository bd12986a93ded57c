"""Async-hazard rules for the live layer.

``repro.net.live`` / ``repro.runtime.live`` are the one place the
architecture allows an event loop (PR 8), which makes them the one
place the classic asyncio hazards can hide: every ``await`` is a
scheduling point where *other* coroutines run, so state read before an
``await`` may be stale after it; a synchronous blocking call inside a
coroutine stalls the whole loop (every peer's pump, the tick gate, the
status writer); and a ``create_task`` whose result is dropped can be
garbage-collected mid-flight and swallows its exceptions.

``async-hazard-stale-write``
    Flags ``self.<attr> = ...`` at an await-level strictly greater
    than the attribute's last read — the read-check-await-write
    interleaving bug.  Reads at the *same* level (a re-validation
    after the await), read-modify-writes (``+=``, mutator method
    calls) and first writes never flag.  ``if``/``match`` branches are
    merged optimistically (a read on any surviving branch counts) and
    branches ending in ``raise``/``return``/``continue``/``break`` are
    excluded from the merge; loop bodies are analyzed for one pass.

``async-hazard-blocking-call``
    Flags calls the effect table marks ``blocks`` (``time.sleep``,
    the ``subprocess`` family, ``socket.create_connection``, ...)
    directly inside an ``async def`` body.

``async-hazard-task-leak``
    Flags a call the effect table marks ``spawns-task``
    (``create_task``, ``ensure_future``) whose result is dropped on
    the floor (a bare expression statement).  Assigning,
    appending, awaiting or chaining ``add_done_callback`` all retain
    the task.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.callgraph import (
    FUNCTION_SCOPES,
    _harvest_imports,
    _walk_pruned,
    external_calls,
)
from repro.lint.effects import external_effects
from repro.lint.engine import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import FileContext, Finding

_TERMINATORS = (ast.Raise, ast.Return, ast.Continue, ast.Break)


def _async_functions(tree: ast.Module) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


# -- stale-write dataflow -----------------------------------------------------


@dataclass
class _State:
    """Await level + per-attribute last-read bookkeeping."""

    level: int = 0
    #: attr -> (await level of last read/write, line of that read)
    last_read: dict[str, tuple[int, int]] = field(default_factory=dict)

    def copy(self) -> "_State":
        return _State(level=self.level, last_read=dict(self.last_read))


def _count_awaits(node: ast.AST) -> int:
    return sum(1 for n in _walk_pruned(node, FUNCTION_SCOPES) if isinstance(n, ast.Await))


def _self_attr_loads(node: ast.AST, exclude: set[int]) -> Iterator[ast.Attribute]:
    for n in _walk_pruned(node, FUNCTION_SCOPES):
        if (
            isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id == "self"
            and isinstance(n.ctx, ast.Load)
            and id(n) not in exclude
        ):
            yield n


def _write_roots(targets: list[ast.expr]) -> list[ast.Attribute]:
    """The ``self.x`` root of each write target (``self.x``,
    ``self.x[k]``, ``self.x[k].y`` all root at ``x``)."""
    roots: list[ast.Attribute] = []
    for target in targets:
        node: ast.AST = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                roots.append(node)
                break
            node = node.value
    return roots


class _StaleWriteAnalyzer:
    def __init__(self, rule: Rule, ctx: "FileContext") -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: list["Finding"] = []

    def analyze(self, fn: ast.AsyncFunctionDef) -> None:
        self._block(fn.body, _State())

    def _block(self, body: list[ast.stmt], state: _State) -> None:
        for stmt in body:
            self._stmt(stmt, state)

    def _reads(self, node: ast.AST, state: _State, exclude: set[int]) -> None:
        for load in _self_attr_loads(node, exclude):
            state.last_read[load.attr] = (state.level, load.lineno)

    def _stmt(self, stmt: ast.stmt, state: _State) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.If):
            state.level += _count_awaits(stmt.test)
            self._reads(stmt.test, state, set())
            self._branches(stmt, [stmt.body, stmt.orelse], state)
            return
        if isinstance(stmt, ast.Match):
            state.level += _count_awaits(stmt.subject)
            self._reads(stmt.subject, state, set())
            self._branches(stmt, [case.body for case in stmt.cases], state)
            return
        if isinstance(stmt, (ast.For, ast.While)):
            header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
            state.level += _count_awaits(header)
            self._reads(header, state, set())
            self._block(stmt.body, state)
            self._block(stmt.orelse, state)
            return
        if isinstance(stmt, ast.AsyncFor):
            state.level += 1 + _count_awaits(stmt.iter)
            self._reads(stmt.iter, state, set())
            self._block(stmt.body, state)
            self._block(stmt.orelse, state)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            if isinstance(stmt, ast.AsyncWith):
                state.level += 1
            for item in stmt.items:
                state.level += _count_awaits(item.context_expr)
                self._reads(item.context_expr, state, set())
            self._block(stmt.body, state)
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body, state)
            for handler in stmt.handlers:
                self._block(handler.body, state)
            self._block(stmt.orelse, state)
            self._block(stmt.finalbody, state)
            return
        # Simple statement: bump level, apply reads, then check writes.
        state.level += _count_awaits(stmt)
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        roots = _write_roots(targets)
        exclude = {id(root) for root in roots}
        self._reads(stmt, state, exclude)
        if isinstance(stmt, ast.AugAssign):
            # Read-modify-write: never stale by itself, but counts as
            # both read and write for what follows.
            for root in _write_roots([stmt.target]):
                state.last_read[root.attr] = (state.level, stmt.lineno)
            return
        for root in roots:
            previous = state.last_read.get(root.attr)
            if previous is not None and previous[0] < state.level:
                read_level, read_line = previous
                self.findings.append(
                    self.rule.finding(
                        self.ctx,
                        root,
                        (
                            f"self.{root.attr} is assigned after an "
                            f"'await' but was last read before it "
                            f"(line {read_line}); another coroutine may "
                            "have changed it — re-read or re-validate "
                            "after the await"
                        ),
                    )
                )
            state.last_read[root.attr] = (state.level, stmt.lineno)

    def _branches(
        self, stmt: ast.stmt, bodies: list[list[ast.stmt]], state: _State
    ) -> None:
        """Process alternative branches and merge optimistically."""
        outcomes: list[_State] = []
        for body in bodies:
            branch = state.copy()
            self._block(body, branch)
            if body and isinstance(body[-1], _TERMINATORS):
                continue  # control does not rejoin the merge
            outcomes.append(branch)
        if not outcomes:
            return  # all branches terminate; what follows is a new path
        state.level = max(outcome.level for outcome in outcomes)
        merged: dict[str, tuple[int, int]] = {}
        for outcome in outcomes:
            for attr, entry in outcome.last_read.items():
                current = merged.get(attr)
                if current is None or entry[0] > current[0]:
                    merged[attr] = entry
        state.last_read = merged


class AsyncStaleWrite(Rule):
    name = "async-hazard-stale-write"
    summary = (
        "self state assigned across an await without a re-validation "
        "read (interleaving hazard)"
    )

    def check(self, ctx: "FileContext") -> Iterable["Finding"]:
        analyzer = _StaleWriteAnalyzer(self, ctx)
        for fn in _async_functions(ctx.tree):
            analyzer.analyze(fn)
        return analyzer.findings


class AsyncBlockingCall(Rule):
    name = "async-hazard-blocking-call"
    summary = "synchronous blocking call inside an async def stalls the loop"

    def check(self, ctx: "FileContext") -> Iterable["Finding"]:
        imports = _harvest_imports(ctx.tree, ctx.module)
        for fn in _async_functions(ctx.tree):
            body = _walk_pruned(fn, FUNCTION_SCOPES + (ast.ClassDef,))
            for node, dotted in external_calls(body, imports):
                if "blocks" in external_effects(dotted):
                    yield self.finding(
                        ctx,
                        node,
                        (
                            f"{dotted} blocks the event loop inside "
                            f"'async def {fn.name}'; use the asyncio "
                            "equivalent or move it off-loop"
                        ),
                    )


class AsyncTaskLeak(Rule):
    name = "async-hazard-task-leak"
    summary = (
        "create_task/ensure_future result dropped — the task can be "
        "collected mid-flight and its exceptions vanish"
    )

    def check(self, ctx: "FileContext") -> Iterable["Finding"]:
        imports = _harvest_imports(ctx.tree, ctx.module)
        dropped = (
            node.value for node in ast.walk(ctx.tree) if isinstance(node, ast.Expr)
        )
        for call, dotted in external_calls(dropped, imports):
            if "spawns-task" in external_effects(dotted):
                yield self.finding(
                    ctx,
                    call,
                    (
                        f"{dotted.lstrip('.')}(...) result is discarded; "
                        "retain the task (assign/append) or chain "
                        "add_done_callback so failures surface"
                    ),
                )
