"""One simulated repetition, in its own process.

``python sim_rep.py --scenario S.json --storage-root DIR [--spans OUT]``
builds a :class:`ScenarioRunner` over the public Scenario API, prints
``READY`` (the parent stops its set-up clock there), runs the scenario,
checks the result, and prints one JSON object as its last line.  With
``--spans`` the ledger's wrappers are installed first and the span
summary written at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def peak_rss_kb() -> int:
    """``VmHWM`` of this process in KiB.  Not ``ru_maxrss``: that one
    starts from the resident size of the process that forked this one,
    so it would report the benchmark driver's memory."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--storage-root", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    recorder = None
    if args.spans:
        import spans

        recorder = spans.install()
    from repro.horizon.compare import horizon_differences
    from repro.scenario.runner import ScenarioRunner
    from repro.scenario.spec import Scenario

    scenario = Scenario.from_json(Path(args.scenario).read_text(encoding="utf-8"))
    runner = ScenarioRunner(scenario, storage_root=args.storage_root)
    print("READY", flush=True)
    if recorder is not None:
        # The budget is over run(): drop what construction recorded.
        recorder.reset()

    cpu_started = time.process_time()
    started = time.perf_counter()
    result = runner.run()
    window_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started

    errors = []
    if result.stopped_by != "stop-condition":
        errors.append(f"stopped by {result.stopped_by}")
    if not result.converged:
        errors.append("DAGs did not converge (more than one fingerprint)")
    if result.requests_delivered < result.requests_issued:
        errors.append(
            f"delivered {result.requests_delivered} of {result.requests_issued}"
        )
    if result.interpreter.below_horizon:
        errors.append(f"below_horizon={result.interpreter.below_horizon}")
    shims = runner.cluster.shims
    errors.extend(horizon_differences(shims))

    if recorder is not None:
        recorder.dump(args.spans)
    print(
        json.dumps(
            {
                "errors": errors,
                "issued": result.requests_issued,
                "delivered": result.requests_delivered,
                "rounds": result.rounds_run,
                "servers": len(shims),
                "window_s": window_s,
                "cpu_s": cpu_s,
                "wire_bytes": result.wire.bytes,
                "peak_rss_kb": peak_rss_kb(),
                # Blocks admitted, summed over servers: the denominator
                # of every ``_per_block`` figure.
                "blocks": sum(len(shim.dag) for shim in shims.values()),
                "ticks": result.rounds_run * len(shims),
                # The counts that must repeat exactly for one seed.
                "exact": {
                    "total_blocks": result.total_blocks,
                    "wire_bytes": result.wire.bytes,
                    "fwd_requests": sum(
                        shim.gossip.metrics.fwd_requests_sent
                        for shim in shims.values()
                    ),
                    "checkpoints": result.storage.checkpoints_written,
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
