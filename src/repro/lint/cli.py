"""``python -m repro.lint`` — the command-line front end.

Formats:

* ``text`` (default) — ``path:line:col: rule message`` plus a summary;
* ``github`` — ``::error`` workflow commands, so a CI lint step
  annotates the offending lines inline in the pull request diff.

Exit status: 0 when the tree is clean (after the baseline), 1 when
findings remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.baseline import Baseline
from repro.lint.engine import Finding, LintEngine
from repro.lint.registry import BY_NAME, RULES

#: ``--profile relaxed`` — benchmarks, examples and tests may read the
#: wall clock and print, but persistence, randomness and concurrency
#: discipline still hold (plus the async-hazard family, which only
#: fires on ``async def`` / spawned tasks anyway).
PROFILES: dict[str, tuple[str, ...] | None] = {
    "strict": None,  # every shipped rule
    "relaxed": (
        "no-pickle",
        "seeded-randomness-only",
        "no-thread-no-asyncio",
        "async-hazard-stale-write",
        "async-hazard-blocking-call",
        "async-hazard-task-leak",
    ),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST invariant linter for the deterministic core.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/repro, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="output format (github emits ::error workflow commands)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--profile",
        choices=tuple(PROFILES),
        default="strict",
        help=(
            "rule profile: 'strict' runs everything, 'relaxed' keeps "
            "no-pickle / seeded-randomness-only / no-thread-no-asyncio "
            "and the async-hazard family (for benchmarks, examples, "
            "tests); --select overrides the profile"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore lint-baseline.json (default: discover it upward)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the shipped rules and exit",
    )
    return parser


def _render_text(
    findings: Sequence[Finding],
    *,
    baselined: int,
    stale: Sequence[tuple[str, str, int]],
    files: int,
) -> str:
    lines = [finding.render() for finding in findings]
    for rule, path, line in stale:
        lines.append(
            f"note: stale baseline entry {rule} at {path}:{line} "
            "(fixed? remove it from lint-baseline.json)"
        )
    lines.append(
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
        f"({baselined} baselined) "
        f"across {files} file{'s' if files != 1 else ''}"
    )
    return "\n".join(lines)


def _render_github(findings: Sequence[Finding]) -> str:
    lines = []
    for f in findings:
        # Workflow-command escaping for the message property.
        message = (
            f.message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        )
        lines.append(
            f"::error file={f.path},line={f.line},col={f.col},"
            f"title=repro.lint({f.rule})::{message}"
        )
    lines.append(f"{len(findings)} findings")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.list_rules:
        width = max(len(name) for name in BY_NAME)
        for rule in RULES:
            print(f"{rule.name:<{width}}  {rule.summary}")
        return 0

    names = PROFILES[args.profile]
    if args.select:
        names = tuple(name.strip() for name in args.select.split(","))
        for name in names:
            if name not in BY_NAME:
                close = difflib.get_close_matches(name, list(BY_NAME), n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                print(
                    f"unknown rule {name!r}{hint}; known: {', '.join(BY_NAME)}",
                    file=sys.stderr,
                )
                return 2
    rules = None if names is None else [BY_NAME[name] for name in names]

    paths = args.paths or (["src/repro"] if Path("src/repro").is_dir() else ["."])
    report = LintEngine(rules).run(paths)

    baseline = Baseline() if args.no_baseline else Baseline.discover(Path(paths[0]))
    findings, stale = baseline.split(report.findings)

    if args.format == "github":
        print(_render_github(findings))
    else:
        print(
            _render_text(
                findings,
                baselined=len(report.findings) - len(findings),
                stale=stale,
                files=report.files,
            )
        )
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
