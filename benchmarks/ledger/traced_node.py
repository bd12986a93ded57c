"""One live node with the ledger's span wrappers installed.

``python traced_node.py --config <NodeConfig JSON> --spans <out>`` is
``python -m repro.node`` plus the wrappers, which go in before the node
is built; the span summary is written after the public ``run_node``
returns (SIGTERM ends it the ordinary way).

The summary covers the window the driver reads ``/proc`` CPU over, so
that ``layers + residual = CPU`` compares like with like: it starts at
the first status this node publishes with ``tick >= 1`` and ends at the
first one with ``complete`` — the two things the driver polls for.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    recorder = spans.install()
    from repro.runtime.live.node import LiveNode, NodeConfig, run_node
    from repro.scenario.spec import resolve_protocol

    traced_status = LiveNode.status
    opened = False

    @functools.wraps(traced_status)
    def status(node: LiveNode):  # type: ignore[no-untyped-def]
        nonlocal opened
        result = traced_status(node)
        if not opened and result.tick >= 1:
            opened = True
            recorder.reset()
        if result.complete:
            recorder.freeze()
        return result

    LiveNode.status = status  # type: ignore[method-assign]

    config = NodeConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    entry = resolve_protocol(config.protocol)
    try:
        final = run_node(config, entry.spec, entry.make_request)
    finally:
        recorder.dump(args.spans)
    return 0 if final.complete else 1


if __name__ == "__main__":
    sys.exit(main())
