"""The committed golden corpus pins every durable byte format and
every registry scenario's cost vector.

Regenerating ``tests/golden/`` must reproduce it byte for byte, and the
*committed* bytes — the WAL file, the newest checkpoint log, wire
frames, JSON documents — must decode, re-encode to themselves and
recover a server.  A deliberate format change, or a change that moves
a count of ``docs/costs.json``, reruns ``tests/golden_corpus.py`` and
commits the diff.
"""

from __future__ import annotations

import json
import shutil
import sys

import pytest

from golden_corpus import (
    GOLDEN_DIR,
    LEDGER_DIR,
    MANIFEST,
    NULL_EMIT,
    RESULT_COUNTS,
    SCENARIO,
    SERVER,
    build,
    corpus_files,
    costs_document,
    manifest,
)
from repro.crypto.keys import KeyRing
from repro.dag import codec
from repro.dag.block import Block
from repro.net.live.framing import FrameDecoder, Hello, encode_frame, register_wire_types
from repro.net.message import BlockEnvelope, FwdRequestEnvelope
from repro.net.simulator import NetworkSimulator
from repro.net.transport import SimTransport
from repro.obs.metrics import MetricsSnapshot
from repro.runtime.live.node import NodeConfig, NodeStatus
from repro.scenario import FaultSchedule, Scenario, ScenarioResult, registry
from repro.scenario.spec import resolve_protocol
from repro.shim.shim import Shim
from repro.storage import ServerStorage
from repro.storage.checkpoint import _FRAME, _HEAD, _OBJECT, _ROOT, root_name
from repro.storage.state_codec import object_bytes, object_links, object_name, object_value
from repro.storage.wal import WriteAheadLog
from repro.types import Label, ServerId

register_wire_types()

#: The segment files an earlier WAL layout left for ``s3``.
SEGMENTED_WAL = GOLDEN_DIR.parent / "fixtures" / "segmented-wal"
#: The object log of ``s3``: every object its checkpoints needed and
#: their roots, of which the two newest are retained.
NEWEST_CHECKPOINT = 3


def committed(path: str) -> bytes:
    return (GOLDEN_DIR / path).read_bytes()


class TestRegeneration:
    def test_manifest_matches_committed_files(self):
        assert manifest(GOLDEN_DIR) == (GOLDEN_DIR / MANIFEST).read_text(encoding="utf-8")

    def test_corpus_stays_small(self):
        assert sum(p.stat().st_size for p in corpus_files(GOLDEN_DIR)) < 200 * 1024

    def test_regenerated_corpus_is_byte_identical(self, tmp_path):
        fresh = tmp_path / "golden"
        fresh.mkdir()
        build(fresh)
        names = [p.relative_to(fresh) for p in corpus_files(fresh)]
        assert names == [p.relative_to(GOLDEN_DIR) for p in corpus_files(GOLDEN_DIR)]
        for name in names:
            if name.suffix == ".json":
                # What moved, readably: a cost vector is compared here.
                assert json.loads((fresh / name).read_text(encoding="utf-8")) == json.loads(
                    (GOLDEN_DIR / name).read_text(encoding="utf-8")
                ), name
            assert (fresh / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
        assert (fresh / MANIFEST).read_bytes() == (GOLDEN_DIR / MANIFEST).read_bytes()


class TestCommittedBytesDecode:
    def test_frames(self):
        data = committed("frames.bin")
        decoder = FrameDecoder()
        values = decoder.feed(data)
        assert decoder.stats.resyncs == decoder.stats.decode_failures == 0
        assert decoder.pending_bytes() == 0
        assert values[0] == Hello(SERVER)
        assert isinstance(values[-1], FwdRequestEnvelope)
        envelopes = values[1:-1]
        assert envelopes and all(isinstance(v, BlockEnvelope) for v in envelopes)
        assert values[-1].ref == envelopes[-1].block.ref
        assert b"".join(encode_frame(v) for v in values) == data

    def test_wal_records(self, tmp_path):
        # Opening a log may repair its tail: never open the committed copy.
        shutil.copytree(GOLDEN_DIR / SERVER / "wal", tmp_path / "wal")
        wal = WriteAheadLog(tmp_path / "wal")
        records = [payload for _, payload in wal.replay()]
        assert records
        for payload in records:
            value = codec.decode(payload)
            assert isinstance(value, Block)
            assert codec.encode(value) == payload
        wal.close()

    def test_a_segmented_wal_replays_to_the_same_blocks(self, tmp_path):
        """The six segment files an earlier WAL layout wrote for this
        server — chain frames and all — still replay, oldest first, to
        the blocks of the one-file WAL."""
        shutil.copytree(SEGMENTED_WAL, tmp_path / "old" / "wal")
        shutil.copytree(GOLDEN_DIR / SERVER / "wal", tmp_path / "new" / "wal")
        assert len(list(SEGMENTED_WAL.glob("wal-*.log"))) == 6
        old = ServerStorage(tmp_path / "old").load_blocks()
        assert old and old == ServerStorage(tmp_path / "new").load_blocks()

    def test_checkpoint(self, tmp_path):
        shutil.copytree(GOLDEN_DIR / SERVER, tmp_path / SERVER)
        checkpoints = ServerStorage(tmp_path / SERVER).checkpoints
        assert checkpoints.sequences() == [NEWEST_CHECKPOINT - 1, NEWEST_CHECKPOINT]
        for seq in checkpoints.sequences():
            assert checkpoints.load(seq).seq == seq
        assert checkpoints.latest().seq == NEWEST_CHECKPOINT
        (log,) = (GOLDEN_DIR / SERVER / "checkpoints").glob("ckpt-*.bin")
        data = log.read_bytes()
        offset = 0
        kinds = {_OBJECT: 0, _ROOT: 0}
        while offset < len(data):
            length, _ = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            kind, name = data[start : start + 1], data[start + 1 : start + _HEAD]
            body = data[start + _HEAD : start + length]
            if kind == _OBJECT:
                assert object_name(body) == name
                value = codec.encode(object_value(body))
                assert object_bytes(object_links(body), value) == body
            else:
                assert root_name(body) == name
                assert codec.encode(codec.decode(body)) == body
            kinds[kind] += 1
            offset = start + length
        assert kinds[_ROOT] >= 2 and kinds[_OBJECT] > kinds[_ROOT]


#: document -> its decode-then-encode round trip.
def _result(text: str) -> str:
    return (
        ScenarioResult.from_json(text).to_json(include_wall_clock=False, indent=2)
        + "\n"
    )


DOCUMENTS = {
    "scenario.json": lambda text: Scenario.from_json(text).to_json(indent=2) + "\n",
    "result.json": _result,
    "faults.json": lambda text: FaultSchedule.from_json(text).to_json(indent=2)
    + "\n",
    "mixed-faults-result.json": _result,
    "metrics.jsonl": lambda text: MetricsSnapshot.from_jsonl(text).to_jsonl(),
    "node-config.json": lambda text: NodeConfig.from_json(text).to_json(indent=2)
    + "\n",
    "node-status.json": lambda text: NodeStatus.from_json(text).to_json(),
    "costs.json": lambda text: json.dumps(json.loads(text), indent=1, sort_keys=True)
    + "\n",
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_committed_document_reencodes_to_itself(name):
    text = committed(f"docs/{name}").decode("utf-8")
    assert DOCUMENTS[name](text) == text


class TestRecoveryFromCommittedFiles:
    @pytest.fixture
    def boot(self, tmp_path):
        scenario = registry.get(SCENARIO, smoke=True)
        config = scenario.topology.storage.build()
        keyring = KeyRing(scenario.topology.servers())
        protocol = resolve_protocol(scenario.protocol).spec
        server = ServerId(SERVER)
        directory = tmp_path / SERVER
        shutil.copytree(GOLDEN_DIR / SERVER, directory)

        def boot() -> Shim:
            transport = SimTransport(NetworkSimulator(), server)
            storage = ServerStorage(directory, config=config)
            return Shim(server, protocol, keyring, transport, storage=storage)

        return boot

    def test_recovers_newest_checkpoint_and_ledger(self, boot):
        shim = boot()
        assert shim.recovery is not None
        assert shim.recovery.checkpoint_seq == NEWEST_CHECKPOINT
        assert shim.recovery.refs_trimmed == 0
        assert shim.recovery.blocks_recovered == len(shim.dag)
        totals = [i.value for i in shim.indications_for(Label("ledger"))]
        assert totals == sorted(totals) and totals[-1] == 10

    def test_checkpoint_written_after_recovery_recovers_again(self, boot):
        first = boot()
        first.checkpoint_now()
        first.storage.close()
        second = boot()
        assert second.recovery.checkpoint_seq == NEWEST_CHECKPOINT + 1
        assert set(second.dag.refs) == set(first.dag.refs)
        assert second.indications == first.indications


class TestCostVector:
    """``docs/costs.json``: exact counts, one vector per registry
    scenario's smoke.  The regeneration test above holds them to the
    code; these name the claims they carry."""

    @pytest.fixture(scope="class")
    def costs(self):
        return json.loads(committed("docs/costs.json"))

    def test_one_cost_vector_per_registry_scenario(self, costs):
        assert sorted(costs) == sorted(registry.names())

    def test_every_count_is_a_span_boundary_or_a_result_counter(self, costs):
        sys.path.insert(0, str(LEDGER_DIR))
        try:
            import spans
        finally:
            sys.path.remove(str(LEDGER_DIR))
        boundaries = {target[0] for target in spans.TARGETS} | {NULL_EMIT}
        for name, vector in costs.items():
            assert set(vector) == {"calls", "result"}, name
            assert set(vector["calls"]) <= boundaries, name
            assert list(vector["result"]) == sorted(RESULT_COUNTS), name
            counts = [*vector["calls"].values(), *vector["result"].values()]
            assert all(type(count) is int and count >= 0 for count in counts), name

    def test_tracing_off_never_calls_the_null_recorder(self, costs):
        # Every instrumentation site guards on ``tracer.enabled``, so
        # tracing off costs one attribute check per site and no call.
        assert {name: vector["calls"][NULL_EMIT] for name, vector in costs.items()} == dict.fromkeys(
            costs, 0
        )

    def test_a_smoke_counts_the_same_alone_and_after_another(self):
        alone = json.loads(costs_document([SCENARIO]))
        after = json.loads(costs_document(["fault-free", SCENARIO]))
        assert after[SCENARIO] == alone[SCENARIO]

    def test_a_restart_replays_only_the_blocks_after_its_checkpoint(self, costs):
        storage = costs[SCENARIO]["result"]
        assert (storage["storage.blocks_replayed"], storage["storage.blocks_recovered"]) == (2, 8)
