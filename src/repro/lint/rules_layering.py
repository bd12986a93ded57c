"""The import-layering rule: the architecture DAG, enforced.

The paper stresses that gossip and interpretation compose "independently,
indicated by the dotted line" (Figure 1), and Sawtooth's
consensus-engine-over-an-endpoint split (SNIPPETS.md §3) shows why the
discipline pays: the interpreter stays clean of wire concerns, so a
transport can be swapped (simulated ⇄ live) without touching the
deterministic core.  This rule pins the whole repository's layering as
an explicit DAG over top-level components: each component may import,
at module level, only the components listed for it below.  Highlights:

* ``dag`` sits under everything — it imports nothing above ``crypto``;
* ``protocols`` never imports ``net``/``storage``/``scenario`` — the
  protocol black box stays pure;
* ``obs`` never imports ``scenario`` (or anything else above
  ``types`` but the ``jsonvalue`` leaf) — observability hangs off
  every layer, so it must sit below all of them;
* ``scenario`` and ``runtime`` are the composition roots.

Only *module-level* imports constrain layering: imports inside an
``if TYPE_CHECKING:`` block are typing-only, and function-scoped
imports are the sanctioned lazy idiom for the two known knots
(``types`` → codec registration, ``storage.recover`` ← shim).  Both
are runtime-acyclic and stay invisible here.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.callgraph import _resolve_relative
from repro.lint.engine import FileContext, Finding, Rule

#: component -> components it may import at module level.  ``errors``
#: and ``types`` are implicit leaves everyone may use, listed anyway so
#: the table reads as the full architecture DAG.
ARCHITECTURE: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    "types": frozenset({"errors"}),
    # The one JSON mapping of every document class (scenario, result,
    # node config and status): a leaf, so obs, runtime and scenario
    # can all import it.
    "jsonvalue": frozenset({"errors"}),
    "crypto": frozenset({"errors", "types"}),
    "obs": frozenset({"errors", "jsonvalue", "types"}),
    "requests": frozenset({"errors", "types"}),
    "dag": frozenset({"crypto", "errors", "types"}),
    "protocols": frozenset({"dag", "errors", "types"}),
    "net": frozenset({"dag", "errors", "obs", "types"}),
    "viz": frozenset({"dag", "errors", "types"}),
    "interpret": frozenset({"dag", "errors", "obs", "protocols", "types"}),
    "gossip": frozenset(
        {"crypto", "dag", "errors", "net", "obs", "requests", "types"}
    ),
    "horizon": frozenset({"crypto", "dag", "errors", "obs", "types"}),
    # The invariant catalogue: pure checks over finished DAGs, traces
    # and horizons, importing nothing that runs a server.
    "invariants": frozenset(
        {"crypto", "dag", "errors", "horizon", "protocols", "types"}
    ),
    "storage": frozenset(
        {
            "crypto",
            "dag",
            "errors",
            "horizon",
            "interpret",
            "obs",
            "protocols",
            "types",
        }
    ),
    "shim": frozenset(
        {
            "crypto",
            "dag",
            "errors",
            "gossip",
            "horizon",
            "interpret",
            "net",
            "obs",
            "protocols",
            "requests",
            "storage",
            "types",
        }
    ),
    "runtime": frozenset(
        {
            "crypto",
            "dag",
            "errors",
            "gossip",
            "horizon",
            "interpret",
            "jsonvalue",
            "net",
            "obs",
            "protocols",
            "requests",
            "shim",
            "storage",
            "types",
        }
    ),
    # The live single-server entrypoint (`python -m repro.node`): pure
    # assembly over the runtime and the scenario registry's protocol
    # catalogue, nothing below that.
    "node": frozenset({"errors", "runtime", "scenario", "types"}),
    "scenario": frozenset(
        {
            "crypto",
            "dag",
            "errors",
            "jsonvalue",
            "net",
            "obs",
            "protocols",
            "runtime",
            "shim",
            "storage",
            "types",
        }
    ),
    "lint": frozenset(),
}


def _module_level_imports(
    tree: ast.Module,
) -> Iterator[ast.Import | ast.ImportFrom]:
    """Imports that bind at import time: module body plus ``if``/``try``
    bodies, excluding ``if TYPE_CHECKING:`` and all function/class bodies."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not _is_type_checking(node.test):
                stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            stack.extend(node.orelse)
            stack.extend(node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


class ImportLayering(Rule):
    """Module-level imports must follow the architecture DAG."""

    name = "import-layering"
    summary = "enforce the component DAG (protocols never import net/storage/...)"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        # The root facade (repro/__init__) re-exports everything by
        # design; modules outside the package are out of scope.
        if not ctx.module.startswith("repro."):
            return
        component = ctx.module.split(".")[1]
        allowed = ARCHITECTURE.get(component)
        for node in _module_level_imports(ctx.tree):
            for target in self._repro_targets(node, ctx.module):
                if target == "__facade__":
                    yield self.finding(
                        ctx,
                        node,
                        f"repro.{component} imports the 'repro' facade at "
                        "module level — a guaranteed import cycle; import "
                        "the concrete submodule instead",
                    )
                    continue
                if target == component:
                    continue
                if allowed is None:
                    yield self.finding(
                        ctx,
                        node,
                        f"component repro.{component} is not in the "
                        "architecture DAG; add it to "
                        "repro.lint.rules_layering.ARCHITECTURE",
                    )
                    break
                if target not in allowed:
                    yield self.finding(
                        ctx,
                        node,
                        f"repro.{component} may not import repro.{target} at "
                        "module level (architecture DAG); use a TYPE_CHECKING "
                        "guard, a function-scoped import, or move the "
                        "dependency to a lower layer",
                    )

    @staticmethod
    def _repro_targets(
        node: ast.Import | ast.ImportFrom, module: str
    ) -> Iterator[str]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "repro":
                    continue
                yield parts[1] if len(parts) > 1 else "__facade__"
            return
        parts = _resolve_relative(module, node).split(".")
        if not parts or parts[0] != "repro":
            return
        if len(parts) > 1:
            yield parts[1]
        else:
            # ``from repro import x`` — each name is a component (or a
            # facade re-export, which is the cycle case).
            for alias in node.names:
                yield alias.name if alias.name in ARCHITECTURE else "__facade__"
