"""The golden byte corpus: committed bytes of every durable format.

``tests/golden/`` holds what one small deterministic storage scenario
leaves behind, so "the bytes did not move" is a test and not a ritual:

* ``s3/wal/wal-*.log`` — every WAL segment of the crash-restart smoke's
  crashed-and-restarted server (CRC-framed canonical chain frames);
* ``s3/checkpoints/ckpt-*.bin`` — that server's newest checkpoint log
  (a full frame and the deltas appended to it);
* ``frames.bin`` — wire frames (``repro.net.live.framing``): a
  handshake, a few block envelopes taken from the WAL and a FWD request;
* ``docs/`` — the JSON documents that cross a process boundary:
  ``scenario.json`` (``show crash-restart --smoke``), ``result.json``
  (its simulated result without the wall clock), ``metrics.jsonl``
  (that result's merged metrics snapshot), ``node-config.json`` (``s1``
  of the live-smoke smoke's node configs under a fixed relative run
  directory), ``node-status.json`` (a fixed node status),
  ``faults.json`` (a fault schedule with one event of each kind) and
  ``mixed-faults-result.json`` (the mixed-faults smoke's simulated
  result without the wall clock: one fork, one crash, one restart and
  a healing partition), and ``costs.json`` (see below);
* ``MANIFEST.sha256`` — ``sha256sum -c``-compatible sums of the above.

``docs/costs.json`` is the cost vector of every registry scenario's
smoke at its fixed seed: the calls at each span boundary the ledger
wraps (``benchmarks/ledger/spans.py``, every non-zero count) plus the
tracing-off recorder's ``emit`` (``obs:null_emit``, zero wherever
tracing is off), and the result's exact counters (blocks, wire
messages and bytes, messages delivered, request steps, WAL and
checkpoint bytes, WAL segments dropped, blocks recovered and
replayed).  The simulator is deterministic, so the counts are exact
for a seed and tier-1 compares them exactly: a change that moves one
regenerates the corpus and says why.  They are counted in a child
process, so the span wrappers never reach the process that asked.

``tests/integration/test_golden_corpus.py`` regenerates the corpus and
compares it byte for byte, then decodes and recovers from every
committed file.  A deliberate format change reruns this script and
commits the diff::

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from operator import attrgetter
from pathlib import Path

import repro
from repro.net.live.framing import Hello, encode_frame
from repro.net.message import BlockEnvelope, FwdRequestEnvelope
from repro.obs.trace import NullRecorder
from repro.runtime.live.node import NodeStatus
from repro.scenario import (
    ByzantineFault,
    CrashFault,
    DuplicationFault,
    FaultSchedule,
    LinkLossFault,
    PartitionFault,
    registry,
    run_scenario,
)
from repro.scenario.live import compile_live_configs
from repro.storage import ServerStorage

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIO = "crash-restart"
SERVER = "s3"
MANIFEST = "MANIFEST.sha256"
#: Blocks from the WAL shipped as wire frames.
FRAMED_BLOCKS = 4
LIVE_SCENARIO = "live-smoke"
#: Run directory of the committed node config (relative: no host path).
LIVE_RUN_DIR = "run"
#: The committed node status.
STATUS = NodeStatus(
    server="s2",
    pid=4242,
    tick=6,
    blocks=24,
    fingerprint="00c0ffee00c0ffee",
    delivered={"tx-0": 1, "tx-1": 1, "tx-2": 0},
    recovered=True,
    gate_timeouts=1,
    wire_messages=96,
    wire_bytes=40960,
    metrics_seq=7,
)
#: The committed fault schedule: one event of each kind.
FAULTS = FaultSchedule(
    (
        ByzantineFault(server="s7", behaviour="equivocator", equivocate_at=(2, 5)),
        CrashFault(server="s3", crash_round=3, restart_round=7),
        PartitionFault(
            start_round=2,
            heal_round=5,
            group_a=("s1", "s2", "s3"),
            group_b=("s4", "s5", "s6", "s7"),
        ),
        LinkLossFault(server="s7", probability=0.25),
        DuplicationFault(probability=0.125),
    )
)
MIXED_SCENARIO = "mixed-faults"
#: The ledger's span wrappers, which the cost vector counts through.
LEDGER_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"
#: The span the cost vector adds to the ledger's: ``NullRecorder.emit``.
NULL_EMIT = "obs:null_emit"
#: The exact counters of a ``ScenarioResult`` in the cost vector.
RESULT_COUNTS = (
    "total_blocks",
    "wire.messages",
    "wire.bytes",
    "interpreter.messages_delivered",
    "interpreter.request_steps",
    "storage.wal_bytes",
    "storage.checkpoint_bytes",
    "storage.wal_segments_dropped",
    "storage.blocks_recovered",
    "storage.blocks_replayed",
)


def build(dest: Path) -> None:
    """Write the whole corpus (manifest included) under ``dest``."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "storage"
        scenario = registry.get(SCENARIO, smoke=True)
        result = run_scenario(scenario, storage_root=root)
        source = root / SERVER
        wal = dest / SERVER / "wal"
        wal.mkdir(parents=True)
        for segment in sorted((source / "wal").glob("wal-*.log")):
            shutil.copyfile(segment, wal / segment.name)
        checkpoints = dest / SERVER / "checkpoints"
        checkpoints.mkdir(parents=True)
        newest = sorted((source / "checkpoints").glob("ckpt-*.bin"))[-1]
        shutil.copyfile(newest, checkpoints / newest.name)
        blocks = ServerStorage(source).load_blocks()[:FRAMED_BLOCKS]
    frames = [encode_frame(Hello(SERVER))]
    frames += [encode_frame(BlockEnvelope(block)) for block in blocks]
    frames.append(encode_frame(FwdRequestEnvelope(blocks[-1].ref)))
    (dest / "frames.bin").write_bytes(b"".join(frames))
    config = compile_live_configs(
        registry.get(LIVE_SCENARIO, smoke=True), Path(LIVE_RUN_DIR)
    )["s1"]
    mixed = run_scenario(registry.get(MIXED_SCENARIO, smoke=True))
    docs = dest / "docs"
    docs.mkdir()
    for name, text in (
        ("scenario.json", scenario.to_json(indent=2) + "\n"),
        ("result.json", result.to_json(include_wall_clock=False, indent=2) + "\n"),
        ("metrics.jsonl", result.metrics.merged.to_jsonl()),
        ("node-config.json", config.to_json(indent=2) + "\n"),
        ("node-status.json", STATUS.to_json()),
        ("faults.json", FAULTS.to_json(indent=2) + "\n"),
        (
            "mixed-faults-result.json",
            mixed.to_json(include_wall_clock=False, indent=2) + "\n",
        ),
        ("costs.json", costs_document()),
    ):
        (docs / name).write_text(text, encoding="utf-8")
    (dest / MANIFEST).write_text(manifest(dest), encoding="utf-8")


def count_costs() -> str:
    """The cost vector of every registry scenario's smoke, by name, as
    the text of ``docs/costs.json``.

    Wraps the layers' entry points in *this* process, for good: call it
    only in a child (:func:`costs_document`).  Each smoke runs twice and
    the second run is counted, so a process-wide memo an earlier
    scenario warmed (the server-id encodings of ``interpret.order``)
    cannot move a count with the catalogue's order.
    """
    sys.path.insert(0, str(LEDGER_DIR))
    import spans

    recorder = spans.install()
    NullRecorder.emit = recorder.wrap(NullRecorder.emit, NULL_EMIT, None)
    costs = {}
    for name in registry.names():
        scenario = registry.get(name, smoke=True)
        run_scenario(scenario)
        recorder.reset()
        result = run_scenario(scenario)
        calls = {span: row["count"] for span, row in recorder.head()["summary"].items()}
        calls.setdefault(NULL_EMIT, 0)
        costs[name] = {
            "calls": calls,
            "result": {field: attrgetter(field)(result) for field in RESULT_COUNTS},
        }
    return json.dumps(costs, indent=1, sort_keys=True) + "\n"


def costs_document() -> str:
    """``docs/costs.json``, counted by :func:`count_costs` in a child
    process that inherits this one's environment (``PYTHONHASHSEED``
    included)."""
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    child = subprocess.run(
        [sys.executable, "-c", "import golden_corpus; print(golden_corpus.count_costs(), end='')"],
        cwd=Path(__file__).resolve().parent,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        check=True,
    )
    return child.stdout


def corpus_files(root: Path) -> list[Path]:
    """Every corpus file under ``root`` except the manifest, sorted."""
    return sorted(
        path
        for path in root.rglob("*")
        if path.is_file() and path.name != MANIFEST
    )


def manifest(root: Path) -> str:
    """``sha256sum`` lines for every corpus file under ``root``."""
    return "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
        f"{path.relative_to(root).as_posix()}\n"
        for path in corpus_files(root)
    )


def main() -> int:
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    GOLDEN_DIR.mkdir()
    build(GOLDEN_DIR)
    print((GOLDEN_DIR / MANIFEST).read_text(encoding="utf-8"), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
