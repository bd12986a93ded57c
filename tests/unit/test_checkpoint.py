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
from repro.storage.checkpoint import (
    CheckpointManager,
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


class TestManager:
    def test_retention(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=2)
        for seq in (1, 2, 3, 4):
            manager.write(capture_checkpoint(seq, interpreter, builder.dag))
        assert manager.sequences() == [3, 4]
        assert manager.latest().seq == 4

    def test_latest_skips_corrupt_newest(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=3)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
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
        manager.write(capture_checkpoint(2, interpreter, builder.dag))
        # Retention dropped seq 1, but numbering never goes backwards.
        assert manager.next_seq() == 3

    def test_write_reports_a_garbled_file_and_keeps_older_checkpoints(
        self, tmp_path, monkeypatch
    ):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=1)
        assert manager.write(capture_checkpoint(1, interpreter, builder.dag)) is True
        flip_before_read_back(monkeypatch)
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
