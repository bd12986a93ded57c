"""LIVE-TRANSPORT — wall-clock cost of real sockets vs the simulator.

The live transport's correctness claim is settled by ``trace diff
--mode chains`` (the integration tests and the CI twin run); this
benchmark settles the *price*.  It runs the same ``live-smoke``
scenario document through both arms:

* ``sim``  — the discrete-event ``NetworkSimulator`` (virtual time;
  the whole fleet is one process, one thread);
* ``live`` — four OS processes over unix-domain sockets behind
  ``LiveTransport`` (wall-clock time; frames, CRCs, kernel buffers).

and reports, per arm: wall-clock duration, delivered-request
throughput, wire volume, and the flight recorder's
**seal→first-receive** stage — the transport's own latency share,
measured identically in both arms because the live transport emits the
same ``wire-send``/``wire-recv`` events the simulator emits.  The live
stage samples are joined across processes by merging the per-server
trace files into one ``LifecycleIndex`` (node clocks are
CLOCK_MONOTONIC on one machine, so cross-process deltas are
meaningful at millisecond scale).

Run:  PYTHONPATH=src python benchmarks/bench_live_transport.py [--smoke]
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_util import emit, reset

from repro.obs.export import read_jsonl
from repro.obs.lifecycle import LifecycleIndex, StageSummary
from repro.scenario import registry
from repro.scenario.runner import ScenarioRunner
from repro.types import ServerId

EXPERIMENT = "LIVE_TRANSPORT"


def _live_seal_to_first_receive(trace_dir: Path, servers: list[str]) -> list[float]:
    """Merge per-process traces into one lifecycle join (seconds)."""
    index = LifecycleIndex()
    for server in servers:
        for event in read_jsonl(trace_dir / f"{server}.jsonl"):
            index.observe(ServerId(server), event)
    return index.seal_to_first_receive_samples()


def run_arm(smoke: bool, live: bool) -> dict[str, object]:
    scenario = registry.get("live-smoke", smoke=smoke)
    servers = [str(s) for s in scenario.topology.servers()]
    trace_root = Path(tempfile.mkdtemp(prefix="bench-live-"))
    try:
        runner = ScenarioRunner(scenario, trace_dir=trace_root, live=live)
        result = runner.run()
        arm: dict[str, object] = {
            "arm": "live" if live else "sim",
            "converged": result.converged,
            "wall_seconds": result.wall_seconds,
            "requests_delivered": result.requests_delivered,
            "throughput_per_wall_second": (
                round(result.requests_delivered / result.wall_seconds, 3)
                if result.wall_seconds
                else 0.0
            ),
            "total_blocks": result.total_blocks,
            "wire_messages": result.wire.messages,
            "wire_bytes": result.wire.bytes,
        }
        if live:
            stage = StageSummary.from_samples(
                _live_seal_to_first_receive(trace_root, servers)
            )
            arm["seal_to_first_receive_wall_s"] = {
                key: round(value, 6) for key, value in stage.as_dict().items()
            }
        else:
            assert result.lifecycle is not None
            arm["seal_to_first_receive_virtual_t"] = (
                result.lifecycle.seal_to_first_receive.as_dict()
            )
        return arm
    finally:
        shutil.rmtree(trace_root, ignore_errors=True)


def run(smoke: bool = False) -> dict[str, object]:
    reset(EXPERIMENT)
    sim = run_arm(smoke, live=False)
    live = run_arm(smoke, live=True)
    report = {
        "experiment": EXPERIMENT,
        "scenario": "live-smoke" + (" (smoke)" if smoke else ""),
        "arms": [sim, live],
        "note": "sim stage latency is virtual time (deterministic), "
        "live stage latency is wall-clock seconds over UDS; the two "
        "arms admit identical per-builder chains (see CI's trace diff "
        "--mode chains step), so this table is purely about cost.",
    }
    emit(
        EXPERIMENT,
        "\n".join(
            [
                f"{EXPERIMENT}: live-smoke, sim vs UDS",
                f"  sim : wall={sim['wall_seconds']}s "
                f"blocks={sim['total_blocks']} "
                f"wire={sim['wire_bytes']}B "
                f"seal→recv(t_virt)={sim['seal_to_first_receive_virtual_t']}",
                f"  live: wall={live['wall_seconds']}s "
                f"blocks={live['total_blocks']} "
                f"wire={live['wire_bytes']}B "
                f"seal→recv(wall)={live['seal_to_first_receive_wall_s']}",
            ]
        ),
    )
    # Sanity floor (both modes): the live fleet must actually have run.
    assert live["converged"] is True
    assert live["total_blocks"] == sim["total_blocks"]
    stage = live["seal_to_first_receive_wall_s"]
    assert stage["count"] > 0, "live traces produced no transport samples"  # type: ignore[index]
    return report


def test_live_transport_smoke():
    run(smoke=True)


if __name__ == "__main__":
    print(json.dumps(run(smoke="--smoke" in sys.argv[1:]), indent=2))
