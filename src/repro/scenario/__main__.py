"""``python -m repro.scenario`` — list, inspect, run and diff scenarios.

Subcommands
-----------

* ``list`` — the registry catalogue with one-line descriptions.
* ``show NAME`` — the exact scenario JSON that ``run NAME`` executes.
* ``run NAME [NAME...]`` — execute scenarios; ``--json`` emits
  ``{"results": [...]}`` (the document CI's schema check parses),
  otherwise a human summary table per scenario.
* ``diff NAME_A NAME_B`` — run two scenarios (or the same one under
  two seeds via ``--seed``/``--seed-b``) and print every result field
  that differs.
* ``trace diff FILE_A FILE_B`` — compare two exported flight-recorder
  traces (``run --trace-dir`` writes them) and report the first
  divergence; exit 0 when identical, 1 when they diverge.
* ``metrics report|top|diff`` — inspect metrics from a ``run --json``
  result document, a ``{"results": [...]}`` batch, or a raw per-node
  ``*.metrics.jsonl`` snapshot.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Mapping

from repro.errors import ScenarioError
from repro.obs.diverge import (
    first_chain_divergence,
    first_divergence,
    first_event_divergence,
)
from repro.obs.export import read_jsonl
from repro.obs.metrics import MetricsError, MetricsReport, MetricsSnapshot
from repro.scenario import registry
from repro.scenario.result import ScenarioResult
from repro.scenario.runner import run_scenario


def _flatten(data: Mapping[str, object], prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def _print_differing(
    flat_a: Mapping[str, object],
    flat_b: Mapping[str, object],
    title: str,
    label_a: str,
    label_b: str,
) -> bool:
    """Print every key whose value differs between two flat documents;
    return whether any did."""
    differing = [
        key
        for key in sorted(set(flat_a) | set(flat_b))
        if flat_a.get(key) != flat_b.get(key)
    ]
    if not differing:
        return False
    width = max(len(key) for key in [title, *differing])
    print(f"{title.ljust(width)}  {label_a}  ->  {label_b}")
    for key in differing:
        print(
            f"{key.ljust(width)}  {flat_a.get(key, '<absent>')}  ->  "
            f"{flat_b.get(key, '<absent>')}"
        )
    return True


def _summary_lines(result: ScenarioResult) -> list[str]:
    latency = result.latency_rounds
    lines = [
        f"scenario      : {result.scenario} (protocol={result.protocol}, "
        f"seed={result.seed})",
        f"stopped       : {result.stopped_by} after {result.rounds_run} rounds "
        f"(t_virt={result.virtual_time:.1f})",
        f"requests      : {result.requests_delivered}/{result.requests_issued} "
        f"delivered, throughput={result.throughput:.4f}/t",
        f"latency (rnd) : p50={latency.p50} p90={latency.p90} "
        f"p99={latency.p99} max={latency.max}",
        f"wire          : {result.wire.messages} envelopes, "
        f"{result.wire.bytes} bytes, {result.wire.dropped} dropped",
        f"cluster       : {result.total_blocks} blocks, converged="
        f"{result.converged}, forks={result.forks_observed}, "
        f"crashes={result.crashes}, restarts={result.restarts}",
    ]
    if result.storage.any_activity():
        lines.append(
            f"storage       : {result.storage.wal_bytes} WAL bytes, "
            f"{result.storage.wal_records_retired} records retired, "
            f"{result.storage.checkpoints_written} checkpoints, "
            f"{result.storage.payloads_dropped} payloads pruned"
        )
    if result.down_at_end:
        lines.append(f"down at end   : {', '.join(result.down_at_end)}")
    if result.lifecycle is not None:
        commit = result.lifecycle.seal_to_interpret
        if commit.count:
            lines.append(
                f"lifecycle     : seal→interpret p50={commit.p50} "
                f"p90={commit.p90} p99={commit.p99} max={commit.max} "
                f"(t_virt, {commit.count} samples)"
            )
    if result.live_lifecycle is not None:
        commit = result.live_lifecycle.seal_to_interpret
        if commit.count:
            lines.append(
                f"live lifecycle: seal→interpret "
                f"p50={commit.p50 * 1000:.1f}ms "
                f"p99={commit.p99 * 1000:.1f}ms "
                f"max={commit.max * 1000:.1f}ms "
                f"(wall clock, {commit.count} samples)"
            )
    if result.metrics is not None and result.metrics.by_server:
        servers = ", ".join(server for server, _ in result.metrics.by_server)
        lines.append(
            f"metrics       : {len(result.metrics.merged.points)} merged "
            f"points from [{servers}] "
            f"(see `python -m repro.scenario metrics report`)"
        )
    if result.slo is not None:
        state = "passed" if result.slo.passed else "FAILED"
        lines.append(f"slo           : {state}")
        lines.append(result.slo.render())
    lines.append(f"wall clock    : {result.wall_seconds:.3f}s")
    return lines


def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in registry.names():
        scenario = registry.get(name, smoke=args.smoke)
        rows.append((name, scenario.protocol, scenario.description))
    width = max(len(name) for name, _, _ in rows)
    for name, protocol, description in rows:
        print(f"{name.ljust(width)}  [{protocol}]  {description}")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    scenario = registry.get(args.name, smoke=args.smoke, seed=args.seed)
    print(scenario.to_json(indent=2))
    return 0


def _fresh_storage_root(base: str | None, name: str) -> str | None:
    """A per-run subdirectory under ``--storage-dir`` (every run gets
    fresh durable state; artefacts stay inspectable under ``base``)."""
    if base is None:
        return None
    root = Path(base)
    root.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(dir=root, prefix=f"{name}-")


def cmd_run(args: argparse.Namespace) -> int:
    results = []
    for name in args.names:
        scenario = registry.get(name, smoke=args.smoke, seed=args.seed)
        trace_dir = (
            Path(args.trace_dir) / name if args.trace_dir is not None else None
        )
        result = run_scenario(
            scenario,
            storage_root=_fresh_storage_root(args.storage_dir, name),
            trace_dir=trace_dir,
            live=args.live,
        )
        results.append(result)
        if not args.json:
            print("\n".join(_summary_lines(result)))
            print()
    if args.json:
        print(
            json.dumps(
                {"results": [r.as_dict() for r in results]},
                indent=2,
                sort_keys=True,
            )
        )
    failed = [
        r for r in results if r.stopped_by in ("max-rounds", "live-timeout")
    ]
    slo_failed = [r for r in results if r.slo is not None and not r.slo.passed]
    return 1 if failed or slo_failed else 0


def cmd_diff(args: argparse.Namespace) -> int:
    scenario_a = registry.get(args.name_a, smoke=args.smoke, seed=args.seed)
    seed_b = args.seed_b if args.seed_b is not None else args.seed
    scenario_b = registry.get(args.name_b, smoke=args.smoke, seed=seed_b)
    result_a = run_scenario(
        scenario_a, storage_root=_fresh_storage_root(args.storage_dir, args.name_a)
    )
    result_b = run_scenario(
        scenario_b, storage_root=_fresh_storage_root(args.storage_dir, args.name_b)
    )
    flat_a = _flatten(result_a.as_dict(include_wall_clock=False))
    flat_b = _flatten(result_b.as_dict(include_wall_clock=False))
    label_a = f"{args.name_a}@{scenario_a.seed}"
    label_b = f"{args.name_b}@{scenario_b.seed}"
    if not _print_differing(flat_a, flat_b, "field", label_a, label_b):
        print(f"{label_a} and {label_b}: results identical")
    return 0


def _load_metrics(path: str) -> MetricsReport:
    """A :class:`MetricsReport` from any of the three on-disk shapes:
    a ``run --json`` result document, a ``{"results": [...]}`` batch
    (first result carrying metrics wins), or a node's raw canonical
    ``*.metrics.jsonl`` snapshot."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict):
            candidates = doc.get("results", [doc])
            if isinstance(candidates, list):
                for entry in candidates:
                    if isinstance(entry, dict) and entry.get("metrics"):
                        return MetricsReport.from_dict(entry["metrics"])
            if "merged" in doc or "by_server" in doc:
                return MetricsReport.from_dict(doc)
            raise ScenarioError(
                f"{path}: no 'metrics' found in the result document"
            )
    try:
        snapshot = MetricsSnapshot.from_jsonl(text)
    except MetricsError as exc:
        raise ScenarioError(f"{path}: not a metrics document: {exc}") from exc
    server = snapshot.server or "node"
    return MetricsReport.from_snapshots({server: snapshot})


def cmd_metrics_report(args: argparse.Namespace) -> int:
    report = _load_metrics(args.file)
    if args.server is not None:
        snapshot = report.snapshot(args.server)
        if snapshot is None:
            known = [server for server, _ in report.by_server]
            raise ScenarioError(
                f"no snapshot for server {args.server!r} (known: {known})"
            )
        report = MetricsReport.from_snapshots({args.server: snapshot})
    print(report.render())
    return 0


def cmd_metrics_top(args: argparse.Namespace) -> int:
    report = _load_metrics(args.file)
    print(report.render(limit=args.n))
    return 0


def cmd_metrics_diff(args: argparse.Namespace) -> int:
    report_a = _load_metrics(args.file_a)
    report_b = _load_metrics(args.file_b)

    def flat(report: MetricsReport) -> dict[str, object]:
        out: dict[str, object] = {}
        for p in report.merged.points:
            labels = ",".join(f"{k}={v}" for k, v in p.labels)
            name = f"{p.name}{{{labels}}}" if labels else p.name
            out[name] = p.count if p.kind == "histogram" else p.value
        return out

    if _print_differing(
        flat(report_a), flat(report_b), "metric", args.file_a, args.file_b
    ):
        return 1
    print("metrics identical")
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    left = read_jsonl(Path(args.file_a))
    right = read_jsonl(Path(args.file_b))
    if args.mode == "events":
        divergence = first_event_divergence(left, right)
    elif args.mode == "chains":
        divergence = first_chain_divergence(left, right)
    else:
        divergence = first_divergence(left, right)
    label_a = Path(args.file_a).name
    label_b = Path(args.file_b).name
    if divergence is None:
        print(f"{label_a} and {label_b}: traces agree ({args.mode} mode)")
        return 0
    print(f"{label_a} vs {label_b}:")
    print(divergence.describe())
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario",
        description="List, inspect, run and diff declarative scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="catalogue of named scenarios")
    p_list.add_argument("--smoke", action="store_true")
    p_list.set_defaults(func=cmd_list)

    p_show = sub.add_parser("show", help="print a scenario's JSON document")
    p_show.add_argument("name")
    p_show.add_argument("--smoke", action="store_true")
    p_show.add_argument("--seed", type=int, default=None)
    p_show.set_defaults(func=cmd_show)

    p_run = sub.add_parser("run", help="execute one or more scenarios")
    p_run.add_argument("names", nargs="+")
    p_run.add_argument("--json", action="store_true", help="emit JSON results")
    p_run.add_argument(
        "--smoke", action="store_true", help="smaller, CI-sized variants"
    )
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument(
        "--storage-dir",
        default=None,
        help="base directory for durable state; each run gets a fresh "
        "subdirectory under it and the artefacts are kept (default: a "
        "temp dir, removed after the run)",
    )
    p_run.add_argument(
        "--trace-dir",
        default=None,
        help="export per-server flight-recorder traces to "
        "<trace-dir>/<scenario>/<server>.jsonl (forces tracing on)",
    )
    p_run.add_argument(
        "--live",
        action="store_true",
        help="execute on a live multi-process cluster (one OS process "
        "per server over unix-domain sockets) instead of the simulator; "
        "fault-free and crash-fault scenarios only",
    )
    p_run.set_defaults(func=cmd_run)

    p_diff = sub.add_parser(
        "diff", help="run two scenarios (or seeds) and diff the results"
    )
    p_diff.add_argument("name_a")
    p_diff.add_argument("name_b")
    p_diff.add_argument("--smoke", action="store_true")
    p_diff.add_argument("--seed", type=int, default=None)
    p_diff.add_argument(
        "--seed-b", type=int, default=None, help="seed for the second run"
    )
    p_diff.add_argument("--storage-dir", default=None)
    p_diff.set_defaults(func=cmd_diff)

    p_trace = sub.add_parser(
        "trace", help="operations on exported flight-recorder traces"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_diff = trace_sub.add_parser(
        "diff",
        help="find the first divergence between two trace JSONL files "
        "(exit 0 identical, 1 diverged)",
    )
    p_trace_diff.add_argument("file_a")
    p_trace_diff.add_argument("file_b")
    p_trace_diff.add_argument(
        "--mode",
        choices=("auto", "events", "chains"),
        default="auto",
        help="'events' compares positional event identity (same-server "
        "replays), 'chains' compares per-builder validated chains "
        "(cross-server equivocation hunting), 'auto' tries chains "
        "first and falls back to events",
    )
    p_trace_diff.set_defaults(func=cmd_trace_diff)

    p_metrics = sub.add_parser(
        "metrics", help="inspect metrics from results or node snapshots"
    )
    metrics_sub = p_metrics.add_subparsers(dest="metrics_command", required=True)
    p_metrics_report = metrics_sub.add_parser(
        "report",
        help="render the merged cluster metrics table from a result "
        "JSON, a {\"results\": [...]} batch, or a *.metrics.jsonl file",
    )
    p_metrics_report.add_argument("file")
    p_metrics_report.add_argument(
        "--server", default=None, help="show one server's snapshot only"
    )
    p_metrics_report.set_defaults(func=cmd_metrics_report)
    p_metrics_top = metrics_sub.add_parser(
        "top", help="the n largest merged metrics"
    )
    p_metrics_top.add_argument("file")
    p_metrics_top.add_argument("-n", type=int, default=10)
    p_metrics_top.set_defaults(func=cmd_metrics_top)
    p_metrics_diff = metrics_sub.add_parser(
        "diff",
        help="diff two metrics documents point by point "
        "(exit 0 identical, 1 differing)",
    )
    p_metrics_diff.add_argument("file_a")
    p_metrics_diff.add_argument("file_b")
    p_metrics_diff.set_defaults(func=cmd_metrics_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
