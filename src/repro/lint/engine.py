"""The lint engine: rule base classes, file walking, parsing, dispatch.

The engine is deliberately dumb: it parses each file once, hands the
tree to every per-file rule, then builds a single shared
:class:`~repro.lint.callgraph.Program` (module index + call graph +
effect fixpoint) over *all* parsed files and runs the whole-program
rules against it — one parse per file feeds both phases.  All
invariant knowledge lives in the rules; all reporting knowledge lives
in the CLI.

There is no per-line suppression: a rule's exceptions are its reviewed
``ALLOWED_MODULES``, and anything else is grandfathered only through
the committed (empty) ``lint-baseline.json``.  A file that does not
parse raises ``parse-error`` (the linter proves invariants over the
AST, so an unparseable file proves nothing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.callgraph import Program


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    display_path: str
    module: str
    tree: ast.Module
    lines: Sequence[str]


class Rule:
    """One invariant check over a parsed file.

    Subclasses set :attr:`name` (the kebab-case id used in findings and
    the baseline) and :attr:`summary` (one line for ``--list-rules``),
    and implement :meth:`check`.
    """

    #: Kebab-case rule identifier.
    name: str = ""
    #: One-line description shown by ``--list-rules``.
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield findings for ``ctx``."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.name,
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProgramRule(Rule):
    """An invariant check over the *whole program*.

    Program rules run in the engine's second phase, after every file
    has been parsed and per-file rules have walked each tree: they see
    a :class:`repro.lint.callgraph.Program` (shared module index, call
    graph, effect fixpoint) instead of one file.  Findings still anchor
    to a (path, line), so the baseline works unchanged.
    """

    def check_program(self, program: "Program") -> Iterable[Finding]:
        """Yield findings over the indexed program."""
        raise NotImplementedError

    def finding_at(
        self, *, path: str, line: int, col: int = 1, message: str
    ) -> Finding:
        return Finding(
            rule=self.name, path=path, line=line, col=col, message=message
        )


def module_name_for(path: Path) -> str:
    """Dotted module name for a file path.

    Anchored at the last ``repro`` path component so it works from any
    checkout root (``src/repro/dag/codec.py`` -> ``repro.dag.codec``).
    Files outside a ``repro`` tree get their bare stem, which keeps
    every path-scoped rule (layering, iteration) inert on them while
    the global rules (clock, randomness, pickle) still run.
    """
    parts = list(path.parts)
    name = parts[-1]
    if name.endswith(".py"):
        parts[-1] = name[:-3]
    if "repro" in parts[:-1] or parts[-1] == "repro":
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "__unknown__"


@dataclass
class LintReport:
    """Outcome of one engine run (before baseline filtering)."""

    findings: list[Finding]
    files: int = 0


class LintEngine:
    """Run a set of rules over sources, files or directory trees."""

    def __init__(self, rules: Iterable[Rule] | None = None) -> None:
        if rules is None:
            from repro.lint.registry import RULES as rules
        self.rules: list[Rule] = list(rules)

    def check_source(
        self,
        source: str,
        *,
        module: str,
        path: str = "<string>",
    ) -> LintReport:
        """Lint one in-memory source (the unit-test entry point)."""
        return self._lint([(source, module, path)])

    def run(self, paths: Sequence[Path | str]) -> LintReport:
        """Lint every ``*.py`` under each path (files or directories).

        All files go through one :meth:`_lint` call so the
        whole-program phase sees a single cross-module index — a
        helper in another module is resolvable, not a dynamic call.
        """
        entries: list[tuple[str, str, str]] = []
        for entry in paths:
            root = Path(entry)
            if root.is_dir():
                targets = sorted(
                    p for p in root.rglob("*.py") if "__pycache__" not in p.parts
                )
            else:
                targets = [root]
            for target in targets:
                entries.append(
                    (
                        target.read_text(encoding="utf-8"),
                        module_name_for(target),
                        target.as_posix(),
                    )
                )
        return self._lint(entries)

    def _lint(self, entries: Sequence[tuple[str, str, str]]) -> LintReport:
        """Parse once, run per-file rules, then whole-program rules."""
        from repro.lint.callgraph import Program

        contexts: list[FileContext] = []
        findings: list[Finding] = []
        for source, module, path in entries:
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        rule="parse-error",
                        path=path,
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) or 1,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            contexts.append(
                FileContext(
                    display_path=path,
                    module=module,
                    tree=tree,
                    lines=source.splitlines(),
                )
            )

        program_rules = [r for r in self.rules if isinstance(r, ProgramRule)]
        for rule in self.rules:
            if not isinstance(rule, ProgramRule):
                for ctx in contexts:
                    findings.extend(rule.check(ctx))
        if program_rules and contexts:
            program = Program(contexts)
            for rule in program_rules:
                findings.extend(rule.check_program(program))
        findings.sort()
        return LintReport(findings=findings, files=len(entries))
