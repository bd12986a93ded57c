"""Unit tests for interpreter checkpoints: capture, persist, install."""

import itertools
import os
import stat
import struct
import zlib
from pathlib import Path

import pytest

from helpers import ManualDagBuilder, flip_before_read_back, fresh_interpreter
from repro.dag import codec
from repro.errors import CheckpointError
from repro.interpret.interpreter import Interpreter
from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.protocols.ledger import Append, ledger_protocol
from repro.storage.blockstore import ServerStorage, StorageConfig
from repro.storage.checkpoint import (
    BlockSkeleton,
    Checkpoint,
    CheckpointManager,
    _to_wire,
    capture_checkpoint,
    install_checkpoint,
)
from repro.storage.state_codec import (
    annotation_fingerprint,
    freeze,
    restore_process,
    snapshot_process,
    thaw,
)
from repro.types import Label

L = Label("l")

_EMPTY_WIRE = {
    "seq": 3, "refs": [], "states": {}, "active": {}, "released": [],
    "skeletons": {}, "events": (), "counters": {},
}


def interpreted_dag(protocol=brb_protocol, rounds=3, request=Broadcast("v")):
    builder = ManualDagBuilder(4)
    builder.round_all(rs_for={builder.servers[0]: [(L, request)]})
    for _ in range(rounds - 1):
        builder.round_all()
    interpreter = fresh_interpreter(builder, protocol)
    interpreter.run()
    return builder, interpreter


class TestStateCodec:
    def test_freeze_thaw_preserves_mutability(self):
        value = {"senders": {"s1", "s2"}, "frozen": frozenset({1}), "seq": [1, (2, 3)]}
        thawed = thaw(freeze(value))
        assert thawed == value
        assert isinstance(thawed["senders"], set)
        assert not isinstance(thawed["senders"], frozenset)
        assert isinstance(thawed["frozen"], frozenset)
        assert isinstance(thawed["seq"], list)
        assert isinstance(thawed["seq"][1], tuple)

    def test_process_snapshot_roundtrip_continues_identically(self):
        builder, interpreter = interpreted_dag()
        ref = builder.dag.tip(builder.servers[1]).ref
        state = interpreter.state_of(ref)
        instance = state.pis[L]
        snapshot = snapshot_process(instance)
        restored = restore_process(brb_protocol, builder.servers, snapshot)
        assert type(restored) is type(instance)
        assert restored.ctx.self_id == instance.ctx.self_id
        assert snapshot_process(restored) == snapshot

    def test_restore_rejects_wrong_protocol(self):
        builder, interpreter = interpreted_dag()
        ref = builder.dag.tip(builder.servers[1]).ref
        snapshot = snapshot_process(interpreter.state_of(ref).pis[L])
        with pytest.raises(CheckpointError):
            restore_process(counter_protocol, builder.servers, snapshot)


class TestCaptureInstall:
    def test_roundtrip_preserves_all_annotations(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path)
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        manager.write(checkpoint)
        loaded = manager.load(1)

        fresh = Interpreter(builder.dag, brb_protocol, builder.servers)
        install_checkpoint(loaded, fresh, brb_protocol)
        assert fresh.interpreted == interpreter.interpreted
        assert fresh.blocks_interpreted == interpreter.blocks_interpreted
        for block in builder.dag:
            assert annotation_fingerprint(
                fresh, block.ref
            ) == annotation_fingerprint(interpreter, block.ref)

    def test_restored_interpreter_continues_like_the_original(self, tmp_path):
        builder, interpreter = interpreted_dag(rounds=2)
        manager = CheckpointManager(tmp_path)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))

        fresh = Interpreter(builder.dag, brb_protocol, builder.servers)
        install_checkpoint(manager.load(1), fresh, brb_protocol)
        # Both interpret the same new layer; annotations must agree.
        builder.round_all()
        interpreter.run()
        fresh.run()
        for block in builder.dag:
            assert annotation_fingerprint(
                fresh, block.ref
            ) == annotation_fingerprint(interpreter, block.ref)

    def test_events_survive(self, tmp_path):
        builder, interpreter = interpreted_dag(rounds=4)
        assert interpreter.events  # BRB delivered somewhere
        manager = CheckpointManager(tmp_path)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        fresh = Interpreter(builder.dag, brb_protocol, builder.servers)
        install_checkpoint(manager.load(1), fresh, brb_protocol)
        assert fresh.events == interpreter.events

    def test_install_restores_only_the_counters_it_knows(self):
        # A store written before a counter was deleted still carries
        # it; a key naming interpreter state must not overwrite that.
        builder, interpreter = interpreted_dag()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        checkpoint.counters.update(chain_runs=3, interpreted=0)
        fresh = Interpreter(builder.dag, brb_protocol, builder.servers)
        install_checkpoint(checkpoint, fresh, brb_protocol)
        assert fresh.blocks_interpreted == interpreter.blocks_interpreted
        assert fresh.interpreted == interpreter.interpreted
        assert not hasattr(fresh, "chain_runs")

    def test_install_refuses_nonfresh_interpreter(self, tmp_path):
        builder, interpreter = interpreted_dag()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        with pytest.raises(CheckpointError):
            install_checkpoint(checkpoint, interpreter, brb_protocol)

    def test_install_refuses_missing_dag_blocks(self, tmp_path):
        builder, interpreter = interpreted_dag()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        from repro.dag.blockdag import BlockDag

        empty = Interpreter(BlockDag(), brb_protocol, builder.servers)
        with pytest.raises(CheckpointError):
            install_checkpoint(checkpoint, empty, brb_protocol)


def growing_captures(count):
    """``count`` checkpoints of one run, each captured a round after
    the one before it and from it, as the shim takes them."""
    builder, interpreter = interpreted_dag(rounds=6)
    previous = None
    captures = []
    for seq in range(1, count + 1):
        request = (Label(f"l{seq}"), Broadcast(seq))
        builder.round_all(rs_for={builder.servers[seq % 4]: [request]})
        interpreter.run()
        previous = capture_checkpoint(seq, interpreter, builder.dag, previous=previous)
        captures.append(previous)
    return captures


def frame_of(checkpoint):
    return codec.encode(_to_wire(checkpoint))


#: Bytes of a frame's ``length | CRC32`` header.
HEADER = 8


class TestManager:
    def test_retention(self, tmp_path):
        builder, interpreter = interpreted_dag()
        for seq in (1, 2, 3, 4):
            # A manager's first write starts a generation.
            manager = CheckpointManager(tmp_path, retain=2)
            manager.write(capture_checkpoint(seq, interpreter, builder.dag))
        assert manager.sequences() == [3, 4]
        assert manager.latest().seq == 4

    def test_later_writes_append_deltas_to_the_newest_generation(self, tmp_path):
        captures = growing_captures(4)
        manager = CheckpointManager(tmp_path, retain=1)
        sizes = []
        for checkpoint in captures:
            assert manager.write(checkpoint)
            sizes.append((tmp_path / "ckpt-00000001.bin").stat().st_size)
        assert manager.sequences() == [1]
        assert sizes == sorted(sizes) and manager.bytes_written == sizes[-1]
        assert sizes[-1] < sum(len(frame_of(c)) for c in captures)
        for checkpoint in captures:
            assert frame_of(manager.load(checkpoint.seq)) == frame_of(checkpoint)
        assert manager.latest().seq == 4 and manager.next_seq() == 5
        # A manager that wrote nothing yet numbers past the deltas too.
        assert CheckpointManager(tmp_path).next_seq() == 5

    def test_compacts_once_the_deltas_outgrow_the_full_frame(self, tmp_path):
        captures = growing_captures(12)
        manager = CheckpointManager(tmp_path, retain=2)
        manager.write(captures[0])
        outcomes = []
        for checkpoint in captures[1:]:
            newest = manager.sequences()[-1]
            base = len(frame_of(manager.load(newest))) + HEADER
            deltas = (tmp_path / f"ckpt-{newest:08d}.bin").stat().st_size - base
            assert manager.write(checkpoint)
            appended = manager.sequences()[-1] == newest
            # Deltas append until together they outgrow the full frame.
            assert appended == (deltas <= base)
            outcomes.append(appended)
            assert frame_of(manager.latest()) == frame_of(checkpoint)
        assert True in outcomes and outcomes.count(False) >= 2
        assert len(manager.sequences()) == 2 and manager.writes == 12

    def test_latest_skips_corrupt_newest(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=3)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        manager = CheckpointManager(tmp_path, retain=3)
        manager.write(capture_checkpoint(2, interpreter, builder.dag))
        newest = tmp_path / "ckpt-00000002.bin"
        newest.write_bytes(newest.read_bytes()[:10])  # truncate
        assert manager.latest().seq == 1

    def test_latest_skips_newest_that_does_not_decode(self, tmp_path, monkeypatch):
        """CRC-intact bytes can still fail to yield a checkpoint — here
        an indication class this process never registered.  Recovery
        must fall back, not abort."""
        early_builder, early = interpreted_dag(rounds=1)
        builder, interpreter = interpreted_dag(rounds=4)
        assert interpreter.events and not early.events
        manager = CheckpointManager(tmp_path, retain=3)
        manager.write(capture_checkpoint(1, early, early_builder.dag))
        manager.write(capture_checkpoint(2, interpreter, builder.dag))
        assert manager.latest().seq == 2
        indication = type(interpreter.events[0].indication)
        monkeypatch.delitem(codec._DATACLASS_REGISTRY, indication.__qualname__)
        with pytest.raises(CheckpointError, match="does not decode"):
            manager.load(2)
        assert manager.latest().seq == 1

    @pytest.mark.parametrize(
        "wire",
        [
            {"seq": 3},                                  # KeyError
            ["not", "a", "dict"],                        # TypeError
            {**_EMPTY_WIRE, "skeletons": {"r": (1, 2)}}, # ValueError (unpack)
        ],
    )
    def test_latest_skips_newest_with_a_foreign_shape(self, tmp_path, wire):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=3)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        payload = codec.encode(wire)
        (tmp_path / "ckpt-00000003.bin").write_bytes(
            struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(CheckpointError):
            manager.load(3)
        assert manager.latest().seq == 1

    def test_latest_none_when_empty(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None

    def test_next_seq_monotonic(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=1)
        assert manager.next_seq() == 1
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        manager = CheckpointManager(tmp_path, retain=1)
        assert manager.next_seq() == 2
        manager.write(capture_checkpoint(2, interpreter, builder.dag))
        # Retention dropped seq 1, but numbering never goes backwards.
        assert manager.sequences() == [2]
        assert manager.next_seq() == 3

    def test_write_reports_a_garbled_file_and_keeps_older_checkpoints(
        self, tmp_path, monkeypatch
    ):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=1)
        assert manager.write(capture_checkpoint(1, interpreter, builder.dag)) is True
        flip_before_read_back(monkeypatch)
        # A new manager's first write is a full frame in a new file.
        manager = CheckpointManager(tmp_path, retain=1)
        assert manager.write(capture_checkpoint(2, interpreter, builder.dag)) is False
        # Retention did not act on the strength of a file that is not
        # what was written; recovery falls back to the intact one.
        assert manager.sequences() == [1, 2]
        assert manager.latest().seq == 1

    def test_read_back_rejects_trailing_and_missing_bytes(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"HEADpayload")
        assert CheckpointManager._reads_back(path, b"HEAD", b"payload")
        assert not CheckpointManager._reads_back(path, b"HEAD", b"payloa")
        assert not CheckpointManager._reads_back(path, b"HEAD", b"payload!")
        assert not CheckpointManager._reads_back(path, b"HEAX", b"payload")
        assert not CheckpointManager._reads_back(tmp_path / "gone", b"HEAD", b"payload")
        # An appended frame is compared from its offset on.
        assert CheckpointManager._reads_back(path, b"pay", b"load", 4)
        assert not CheckpointManager._reads_back(path, b"pay", b"loa", 4)
        assert not CheckpointManager._reads_back(path, b"HEAD", b"payload", 4)

    def test_fsync_orders_file_rename_directory(self, tmp_path, monkeypatch):
        builder, interpreter = interpreted_dag()
        events = []
        real_fsync, real_replace = os.fsync, Path.replace

        def fsync(fd):
            events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        def replace(self, target):
            events.append("rename")
            return real_replace(self, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Path, "replace", replace)
        CheckpointManager(tmp_path / "off").write(
            capture_checkpoint(1, interpreter, builder.dag)
        )
        assert events == ["rename"]
        del events[:]
        manager = CheckpointManager(tmp_path / "on", fsync=True)
        assert manager.write(capture_checkpoint(1, interpreter, builder.dag))
        assert events == ["file", "rename", "dir"]
        assert manager.load(1).seq == 1

    def test_fsync_syncs_an_appended_frame_in_place(self, tmp_path, monkeypatch):
        first, second = growing_captures(2)
        manager = CheckpointManager(tmp_path, fsync=True)
        assert manager.write(first)
        events = []
        real_fsync, real_replace = os.fsync, Path.replace

        def fsync(fd):
            events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        def replace(self, target):
            events.append("rename")
            return real_replace(self, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Path, "replace", replace)
        assert manager.write(second)
        assert events == ["file"] and manager.sequences() == [1]

    def test_server_storage_hands_its_fsync_flag_to_checkpoints(self, tmp_path):
        from repro.storage.blockstore import ServerStorage, StorageConfig

        assert ServerStorage(tmp_path / "a", StorageConfig(fsync=True)).checkpoints.fsync
        assert not ServerStorage(tmp_path / "b", StorageConfig()).checkpoints.fsync

    def test_stale_temp_files_are_removed_on_open(self, tmp_path):
        builder, interpreter = interpreted_dag()
        CheckpointManager(tmp_path).write(
            capture_checkpoint(1, interpreter, builder.dag)
        )
        stale = tmp_path / "ckpt-00000002.tmp"  # crash between write and rename
        stale.write_bytes(b"half a checkpoint")
        unrelated = tmp_path / "notes.tmp"
        unrelated.write_bytes(b"not ours")
        manager = CheckpointManager(tmp_path)
        assert not stale.exists() and unrelated.exists()
        assert manager.sequences() == [1] and manager.latest().seq == 1

    def test_counter_protocol_checkpoint(self, tmp_path):
        builder = ManualDagBuilder(4)
        builder.round_all(
            rs_for={s: [(L, Inc(i + 1))] for i, s in enumerate(builder.servers)}
        )
        builder.round_all()
        builder.round_all()
        interpreter = fresh_interpreter(builder, counter_protocol)
        interpreter.run()
        manager = CheckpointManager(tmp_path)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        fresh = Interpreter(builder.dag, counter_protocol, builder.servers)
        install_checkpoint(manager.load(1), fresh, counter_protocol)
        for block in builder.dag:
            assert annotation_fingerprint(
                fresh, block.ref
            ) == annotation_fingerprint(interpreter, block.ref)


class TestLogCrashSafety:
    """What a crash or a bad disk leaves of a checkpoint log, and what
    the next write does about it."""

    @staticmethod
    def one_generation(tmp_path, captures):
        """Write ``captures`` as one log; the offset each frame ends at."""
        manager = CheckpointManager(tmp_path)
        ends = []
        for checkpoint in captures:
            assert manager.write(checkpoint)
            ends.append((tmp_path / "ckpt-00000001.bin").stat().st_size)
        assert manager.sequences() == [1]
        return tmp_path / "ckpt-00000001.bin", ends

    def test_torn_last_frame_gives_the_previous_fold_and_a_fresh_file(self, tmp_path):
        captures = growing_captures(4)
        log, ends = self.one_generation(tmp_path, captures)
        # A crash halfway through appending the last frame.
        log.write_bytes(log.read_bytes()[: (ends[2] + ends[3]) // 2])
        reopened = CheckpointManager(tmp_path)
        assert frame_of(reopened.latest()) == frame_of(captures[2])
        with pytest.raises(CheckpointError, match="not in its log"):
            reopened.load(4)
        assert reopened.next_seq() == 4
        assert reopened.write(captures[3])
        assert reopened.sequences() == [1, 4]
        fresh = tmp_path / "ckpt-00000004.bin"
        assert fresh.stat().st_size == len(frame_of(captures[3])) + HEADER
        assert frame_of(reopened.latest()) == frame_of(captures[3])

    def test_garbled_byte_in_a_middle_frame_ends_the_fold_there(self, tmp_path):
        captures = growing_captures(4)
        log, ends = self.one_generation(tmp_path, captures)
        data = bytearray(log.read_bytes())
        data[(ends[0] + ends[1]) // 2] ^= 0x01  # inside checkpoint 2's delta
        log.write_bytes(bytes(data))
        reopened = CheckpointManager(tmp_path)
        assert frame_of(reopened.latest()) == frame_of(captures[0])
        with pytest.raises(CheckpointError, match="integrity check"):
            reopened.load(3)

    def test_corrupt_base_falls_back_to_the_previous_generation(self, tmp_path):
        captures = growing_captures(5)
        self.one_generation(tmp_path, captures[:3])
        manager = CheckpointManager(tmp_path)
        assert manager.write(captures[3]) and manager.write(captures[4])
        assert manager.sequences() == [1, 4]
        newest = tmp_path / "ckpt-00000004.bin"
        data = bytearray(newest.read_bytes())
        data[20] ^= 0x01  # inside the full frame
        newest.write_bytes(bytes(data))
        reopened = CheckpointManager(tmp_path)
        assert frame_of(reopened.latest()) == frame_of(captures[2])
        assert reopened.next_seq() == 5

    def test_failed_read_back_of_an_appended_frame_drops_no_wal_segment(
        self, tmp_path, monkeypatch
    ):
        storage = ServerStorage(tmp_path, StorageConfig(segment_max_bytes=256))
        builder = ManualDagBuilder(3)
        for _ in range(4):
            for block in builder.round_all():
                storage.append_block(block)
            storage.flush_wal()
        skeletons = {
            b.ref: BlockSkeleton(n=b.n, k=b.k, preds=b.preds, sigma=bytes(b.sigma), hz=b.hz)
            for b in builder.dag.blocks()
        }

        def checkpoint(seq, covered):
            return Checkpoint(
                seq=seq, refs=frozenset(skeletons), states={}, active={},
                skeletons=covered,
            )

        storage.write_checkpoint(checkpoint(1, {}))
        segments = [s.index for s in storage.wal.segments()]
        assert len(segments) > 2
        with monkeypatch.context() as patch:
            flip_before_read_back(patch)
            # A delta adding the skeletons that cover every sealed segment.
            storage.write_checkpoint(checkpoint(2, skeletons))
        assert storage.checkpoints.sequences() == [1]
        assert [s.index for s in storage.wal.segments()] == segments
        assert storage.wal.stats.segments_dropped == 0
        assert storage.checkpoints.latest().seq == 1
        # The next write starts a new file, reads back, and GC acts.
        storage.write_checkpoint(checkpoint(3, skeletons))
        assert storage.checkpoints.sequences() == [1, 3]
        assert len(storage.wal.segments()) < len(segments)
        assert storage.checkpoints.latest().seq == 3
        storage.close()

    def test_checkpoint_after_a_trimmed_recovery_folds_to_a_fresh_capture(
        self, tmp_path
    ):
        from repro.crypto.keys import KeyRing
        from repro.net.simulator import NetworkSimulator
        from repro.net.transport import SimTransport
        from repro.runtime.cluster import Cluster, ClusterConfig
        from repro.shim.shim import Shim
        from repro.types import make_servers

        storage = StorageConfig(checkpoint_interval=4, prune=False)
        cluster = Cluster(
            brb_protocol, n=4, config=ClusterConfig(storage_dir=tmp_path, storage=storage)
        )
        for i, server in enumerate(cluster.servers):
            cluster.request(server, Label(f"tx-{i}"), Broadcast(i))
        cluster.run_rounds(6)
        for stopped in cluster.shims.values():
            stopped.storage.abandon()
        # Lose a WAL suffix the newest checkpoint already covers.
        last = sorted((tmp_path / "s1" / "wal").glob("wal-*.log"))[-1]
        last.write_bytes(last.read_bytes()[:-5])
        shim = Shim(
            "s1",
            brb_protocol,
            KeyRing(make_servers(4)),
            SimTransport(NetworkSimulator(), "s1"),
            storage=ServerStorage(tmp_path / "s1", storage),
        )
        assert shim.recovery.refs_trimmed >= 1
        shim.checkpoint_now()
        written = shim._last_checkpoint
        checkpoints = shim.storage.checkpoints
        # Not a delta against the trimmed checkpoint: a new full file.
        assert checkpoints.sequences()[-1] == written.seq
        fresh = capture_checkpoint(written.seq, shim.interpreter, shim.dag, owner=shim.server)
        assert frame_of(checkpoints.latest()) == frame_of(fresh)
        shim.storage.close()


class _CountedValue(str):
    """A ledger value that counts how often the codec encodes it."""

    encodes = 0

    def encode(self, *args, **kwargs):
        _CountedValue.encodes += 1
        return super().encode(*args, **kwargs)


class TestNewEntryCost:
    """A state entry new in a checkpoint costs what its block wrote —
    one bucket of the ledger — not what the ledger holds."""

    @staticmethod
    def value_encodes_of_second_capture(entries: int) -> int:
        builder = ManualDagBuilder(3)
        values = (_CountedValue(f"v{i}") for i in range(entries + 4))
        requesters = itertools.cycle(builder.servers)

        def round_with(appends: int) -> None:
            requests = [(L, Append(next(values))) for _ in range(appends)]
            builder.round_all(rs_for={next(requesters): requests})

        for _ in range(entries // 8):
            round_with(8)
        for _ in range(2):  # every replica applies every entry
            builder.round_all()
        interpreter = fresh_interpreter(builder, ledger_protocol)
        interpreter.run()
        tip = interpreter.state_of(builder.dag.tip(builder.servers[0]).ref)
        assert tip.pis[L].count == entries
        first = capture_checkpoint(1, interpreter, builder.dag)
        for ref in first.states:
            first.state_bytes(ref)

        for _ in range(4):
            round_with(1)
        interpreter.run()
        _CountedValue.encodes = 0
        second = capture_checkpoint(2, interpreter, builder.dag, previous=first)
        assert len(second.states) == len(first.states) + 12
        for ref in second.states:
            second.state_bytes(ref)
        return _CountedValue.encodes

    def test_flat_in_the_ledger_size(self):
        small = self.value_encodes_of_second_capture(64)
        assert small > 0
        assert self.value_encodes_of_second_capture(256) <= small
