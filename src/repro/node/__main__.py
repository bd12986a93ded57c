"""CLI of one live server process (see the package docstring)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ScenarioError
from repro.runtime.live.node import NodeConfig, run_node
from repro.scenario.spec import resolve_protocol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.node",
        description="Run one live block-DAG server from a NodeConfig JSON.",
    )
    parser.add_argument(
        "--config",
        required=True,
        help="path to the NodeConfig JSON (written by LiveCluster, or by hand)",
    )
    parser.add_argument(
        "--print-status",
        action="store_true",
        help="print the final NodeStatus JSON to stdout on exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = NodeConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    except (ScenarioError, OSError) as exc:
        print(f"node config error: {exc}", file=sys.stderr)
        return 2
    entry = resolve_protocol(config.protocol)
    status = run_node(config, entry.spec, entry.make_request)
    if args.print_status:
        print(status.to_json(indent=2))
    return 0 if status.complete else 1


if __name__ == "__main__":
    sys.exit(main())
