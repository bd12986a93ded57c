"""The lint engine: file walking, parsing, suppressions, rule dispatch.

The engine is deliberately dumb: it parses each file once, hands the
tree to every registered per-file rule, then builds a single shared
:class:`~repro.lint.callgraph.Program` (module index + call graph +
effect fixpoint) over *all* parsed files and runs the whole-program
rules against it — one parse per file feeds both phases.  The per-line
suppression protocol applies uniformly to findings from either phase.
All invariant knowledge lives in the rules; all reporting knowledge
lives in the CLI.

Suppression protocol (one line, next to the finding)::

    flagged_code()  # lint: allow(rule-name) — reason the invariant holds

* several rules: ``allow(rule-a, rule-b)``;
* the reason is mandatory — an allow without one raises ``bare-allow``;
* an allow that suppresses nothing raises ``unused-allow`` (stale
  annotations rot into lies; they must stay load-bearing);
* a file that does not parse raises ``parse-error`` (the linter proves
  invariants over the AST, so an unparseable file proves nothing).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.registry import ProgramRule, Rule, all_rules
from repro.obs.metrics import perf_counter

#: ``# lint: allow(RULE-A, RULE-B) — reason``, lowercased in real use
#: (reason optional at the regex level; its absence becomes a
#: ``bare-allow`` finding).
_ALLOW_RE = re.compile(
    r"#\s*lint:\s*allow\(\s*(?P<rules>[a-z0-9_,\s-]+?)\s*\)"
    r"(?:\s*[—–:-]+\s*(?P<reason>\S.*))?\s*$"
)

#: Engine-level findings (not in the registry — always on).
META_RULES = ("bare-allow", "unused-allow", "parse-error")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class _Suppression:
    """One ``# lint: allow(...)`` comment."""

    line: int
    rules: frozenset[str]
    reason: str | None
    used: bool = False


class FileContext:
    """Everything a rule may look at for one file."""

    def __init__(
        self,
        *,
        display_path: str,
        module: str,
        tree: ast.Module,
        lines: Sequence[str],
    ) -> None:
        self.display_path = display_path
        self.module = module
        self.tree = tree
        self.lines = lines

    @property
    def component(self) -> str | None:
        """The top-level ``repro`` component (``"storage"`` for
        ``repro.storage.wal``), or ``None`` outside the package."""
        parts = self.module.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return None
        return parts[1]


def module_name_for(path: Path) -> str:
    """Dotted module name for a file path.

    Anchored at the last ``repro`` path component so it works from any
    checkout root (``src/repro/dag/codec.py`` -> ``repro.dag.codec``).
    Files outside a ``repro`` tree get their bare stem, which keeps
    every path-scoped rule (cow-barrier, layering, iteration) inert on
    them while the global rules (clock, randomness, pickle) still run.
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


def _parse_suppressions(source: str) -> list[_Suppression]:
    """Extract suppressions from *actual comment tokens*.

    Tokenizing (rather than regex-scanning raw lines) means a
    suppression example quoted inside a docstring or string literal is
    inert — only executable-source comments carry authority.
    """
    suppressions: list[_Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    for lineno, text in comments:
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        suppressions.append(
            _Suppression(line=lineno, rules=rules, reason=match.group("reason"))
        )
    return suppressions


@dataclass
class LintReport:
    """Outcome of one engine run (before baseline filtering)."""

    findings: list[Finding]
    suppressed: int = 0
    files: int = 0
    #: rule name -> cumulative wall seconds (plus the shared
    #: ``whole-program-index`` entry for parse-independent index cost).
    timings: dict[str, float] = field(default_factory=dict)

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed += other.suppressed
        self.files += other.files
        for name, seconds in other.timings.items():
            self.timings[name] = self.timings.get(name, 0.0) + seconds


class LintEngine:
    """Run a set of rules over sources, files or directory trees."""

    def __init__(self, rules: Iterable[Rule] | None = None) -> None:
        self.rules: list[Rule] = list(all_rules() if rules is None else rules)

    # -- single sources ------------------------------------------------------

    def check_source(
        self,
        source: str,
        *,
        module: str,
        path: str = "<string>",
    ) -> LintReport:
        """Lint one in-memory source (the unit-test entry point)."""
        return self._lint([(source, module, path)])

    def check_file(self, path: Path, *, display_path: str | None = None) -> LintReport:
        source = path.read_text(encoding="utf-8")
        return self._lint(
            [
                (
                    source,
                    module_name_for(path),
                    display_path if display_path is not None else path.as_posix(),
                )
            ]
        )

    # -- trees ---------------------------------------------------------------

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

    # -- the two-phase pass --------------------------------------------------

    def _lint(self, entries: Sequence[tuple[str, str, str]]) -> LintReport:
        """Parse once, run per-file rules, then whole-program rules."""
        from repro.lint.callgraph import Program

        contexts: list[FileContext] = []
        raw: list[Finding] = []
        suppressions_by_path: dict[str, list[_Suppression]] = {}
        for source, module, path in entries:
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                raw.append(
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
            suppressions_by_path[path] = _parse_suppressions(source)

        timings: dict[str, float] = {}
        per_file = [r for r in self.rules if not isinstance(r, ProgramRule)]
        program_rules = [r for r in self.rules if isinstance(r, ProgramRule)]
        for rule in per_file:
            started = perf_counter()
            for ctx in contexts:
                raw.extend(rule.check(ctx))
            timings[rule.name] = perf_counter() - started
        if program_rules and contexts:
            started = perf_counter()
            program = Program(contexts)
            timings["whole-program-index"] = perf_counter() - started
            for rule in program_rules:
                started = perf_counter()
                raw.extend(rule.check_program(program))
                timings[rule.name] = perf_counter() - started

        kept: list[Finding] = []
        suppressed = 0
        by_line: dict[str, dict[int, list[_Suppression]]] = {}
        for path, suppressions in suppressions_by_path.items():
            per_path = by_line.setdefault(path, {})
            for suppression in suppressions:
                per_path.setdefault(suppression.line, []).append(suppression)
        for finding in raw:
            hit = False
            for suppression in by_line.get(finding.path, {}).get(
                finding.line, ()
            ):
                if finding.rule in suppression.rules:
                    suppression.used = True
                    hit = True
            if hit:
                suppressed += 1
            else:
                kept.append(finding)

        for path, suppressions in suppressions_by_path.items():
            for suppression in suppressions:
                if suppression.reason is None:
                    kept.append(
                        Finding(
                            rule="bare-allow",
                            path=path,
                            line=suppression.line,
                            col=1,
                            message=(
                                "lint suppression without a reason; write "
                                "'# lint: allow(rule) — why the invariant holds'"
                            ),
                        )
                    )
                if not suppression.used:
                    kept.append(
                        Finding(
                            rule="unused-allow",
                            path=path,
                            line=suppression.line,
                            col=1,
                            message=(
                                "suppression suppresses nothing "
                                f"(rules: {', '.join(sorted(suppression.rules))}); "
                                "delete the stale annotation"
                            ),
                        )
                    )
        kept.sort()
        return LintReport(
            findings=kept,
            suppressed=suppressed,
            files=len(entries),
            timings=timings,
        )
