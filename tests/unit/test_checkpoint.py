"""Unit tests for interpreter checkpoints: capture, persist, install."""

import itertools
import os
import stat
from pathlib import Path

import pytest

from helpers import (
    stored,
    ManualDagBuilder,
    flip_before_read_back,
    fresh_interpreter,
    frozen,
    stored_instance,
)
from repro.dag import codec
from repro.errors import CheckpointError
from repro.interpret.interpreter import Interpreter
from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.protocols.ledger import Append, ledger_protocol
from repro.storage.blockstore import ServerStorage, StorageConfig
from repro.dag.block import Block
from repro.storage.checkpoint import (
    Checkpoint,
    CheckpointManager,
    _append_frame,
    _ROOT,
    capture_checkpoint,
    install_checkpoint,
    root_name,
)
from repro.storage.state_codec import (
    ObjectWriter,
    annotation_fingerprint,
    restore_process,
    thaw,
)
from repro.protocols.brb import ReliableBroadcast
from repro.types import Label
from reference_writer import ReferenceWriter

L = Label("l")

_EMPTY_ROOT = {
    "seq": 3, "counters": {}, "rows": (), "carried": (),
    "chains": dict.fromkeys(("skeletons", "events")),
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
        thawed = thaw(*frozen(value))
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
        snapshot, load = stored_instance(instance)
        restored = restore_process(brb_protocol, builder.servers, snapshot, load)
        assert type(restored) is type(instance)
        assert restored.ctx.self_id == instance.ctx.self_id
        assert stored_instance(restored)[0] == snapshot

    def test_restore_rejects_wrong_protocol(self):
        builder, interpreter = interpreted_dag()
        ref = builder.dag.tip(builder.servers[1]).ref
        snapshot, load = stored_instance(interpreter.state_of(ref).pis[L])
        with pytest.raises(CheckpointError):
            restore_process(counter_protocol, builder.servers, snapshot, load)


class _Marked(ReliableBroadcast):
    """A protocol class that keeps part of its state in a slot."""

    __slots__ = ("mark",)


def reference_bytes(value) -> bytes:
    """``value``'s frozen form as the reference writer writes it."""
    out = bytearray()
    ReferenceWriter()._write(value, out)
    return bytes(out)


class TestObjectNames:
    """The writer names by identity, by typed content and by per-class
    prefixes; every name and byte must be what the reference writer
    (``tests/reference_writer.py``) gives the same value."""

    @pytest.mark.parametrize(
        "values",
        [
            ({1}, {True}),
            ([1], ["1"]),
            (set(), frozenset(), []),
            ([1, True], [True, 1]),
            ({1, False}, {True, 0}),
            (frozenset({1}), frozenset({True})),
            ({"s": {1}, "t": [1]}, {"s": {True}, "t": [True]}),
        ],
    )
    def test_values_equal_as_dict_keys_get_distinct_names(self, values):
        # One writer for the whole group, in both orders: whichever is
        # named first must not hand its name to the others.
        for group in (values, values[::-1]):
            writer = ObjectWriter()
            written = []
            for value in group:
                out = bytearray()
                writer._write(value, out)
                written.append(bytes(out))
            assert len(set(written)) == len(group)
            assert written == [reference_bytes(value) for value in group]

    def test_instances_that_differ_only_in_attribute_names_get_distinct_names(self):
        builder, interpreter = interpreted_dag()
        instance = interpreter.state_of(builder.dag.tip(builder.servers[1]).ref).pis[L]
        first, second = instance.fork(), instance.fork()
        first.extra = 1
        second.other = 1
        writer = ObjectWriter()
        names = [writer.instance(first), writer.instance(second), writer.instance(instance)]
        assert len(set(names)) == 3
        for value, name in zip((first, second, instance), names):
            reference = ReferenceWriter()
            assert reference.instance(value) == name
            assert reference.built[name] == writer.built[name]

    def test_state_kept_in_slots_is_written_as_the_reference_writes_it(self):
        builder, interpreter = interpreted_dag()
        instance = interpreter.state_of(builder.dag.tip(builder.servers[1]).ref).pis[L]
        marked, unmarked = _Marked(instance.ctx), _Marked(instance.ctx)
        marked.mark = {"a", "b"}
        writer = ObjectWriter()
        for value in (marked, unmarked):
            name = writer.instance(value)
            reference = ReferenceWriter()
            assert reference.instance(value) == name
            assert reference.built == {n: writer.built[n] for n in reference.built}


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
        checkpoint.counters.update(chain_runs=3, interpreted=0, blocks_interpreted=0)
        fresh = Interpreter(builder.dag, brb_protocol, builder.servers)
        install_checkpoint(checkpoint, fresh, brb_protocol)
        assert fresh.blocks_interpreted == interpreter.blocks_interpreted
        assert fresh.interpreted == interpreter.interpreted
        assert not hasattr(fresh, "chain_runs")

    def test_a_quiet_row_does_not_grow_with_the_labels_requested_before_it(self):
        """A row holds its block's annotation and nothing else: a block
        that steps nothing writes the same bytes however many labels
        were requested in its past."""

        def quiet_row(requested):
            builder = ManualDagBuilder(4)
            labels = [Label(f"l{i:03d}") for i in range(requested)]
            builder.round_all(
                rs_for={builder.servers[0]: [(l, Broadcast(1)) for l in labels]}
            )
            for _ in range(5):  # every instance delivers, then falls silent
                builder.round_all()
            interpreter = fresh_interpreter(builder, brb_protocol)
            interpreter.run()
            quiet = builder.dag.tip(builder.servers[1])
            runs = interpreter.state_of(quiet.ref).ms.runs()
            assert runs == {"in": {}, "out": {}}
            checkpoint = capture_checkpoint(1, interpreter, builder.dag)
            row = checkpoint.objects.built[checkpoint.rows[quiet.ref]]
            # The ref and base differ between the two DAGs; mask them.
            base = checkpoint.states[quiet.ref]["base"]
            assert base is not None
            for ref in (quiet.ref, base):
                row = row.replace(ref.encode(), b"-" * len(ref))
            return row

        assert quiet_row(10) == quiet_row(200)

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


def contents(checkpoint):
    """Everything a checkpoint says, canonically encoded.  Rows name
    their objects by content, so equal bytes are equal state."""
    return codec.encode(
        {
            "seq": checkpoint.seq,
            "refs": sorted(checkpoint.refs),
            "states": {
                str(ref): (e["base"], e["pis"], e["in"], e["out"])
                for ref, e in checkpoint.states.items()
            },
            "released": sorted(checkpoint.released),
            "skeletons": {
                str(r): (s.n, s.k, s.preds, s.sigma, s.hz)
                for r, s in checkpoint.skeletons.items()
            },
            "events": tuple(
                (str(e.label), e.indication, str(e.server), str(e.block_ref))
                for e in checkpoint.events
            ),
            "counters": checkpoint.counters,
        }
    )


def log_of(directory):
    (path,) = Path(directory).glob("ckpt-*.bin")
    return path


def append_root(path, wire):
    """Append an intact root frame holding ``wire``."""
    data = codec.encode(wire)
    frame = bytearray()
    _append_frame(frame, _ROOT, root_name(data), data)
    with open(path, "ab") as handle:
        handle.write(frame)


def bare(seq, *refs):
    """A checkpoint of rows without instances, one per ref."""
    entry = {"pis": {}, "in": {}, "out": {}, "base": None}
    return stored(
        Checkpoint(seq=seq, states=dict.fromkeys(refs, entry))
    )


class TestManager:
    def test_retention(self, tmp_path):
        builder, interpreter = interpreted_dag()
        for seq in (1, 2, 3, 4):
            manager = CheckpointManager(tmp_path, retain=2)
            manager.write(capture_checkpoint(seq, interpreter, builder.dag))
        assert manager.sequences() == [3, 4]
        assert manager.latest().seq == 4

    def test_later_writes_append_only_what_the_store_lacks(self, tmp_path):
        captures = growing_captures(4)
        manager = CheckpointManager(tmp_path, retain=4)
        sizes = []
        for checkpoint in captures:
            assert manager.write(checkpoint)
            sizes.append(log_of(tmp_path).stat().st_size)
        assert manager.sequences() == [1, 2, 3, 4]
        assert manager.bytes_written == sizes[-1]
        appended = [b - a for a, b in zip([0] + sizes, sizes)]
        # Every later checkpoint holds the first one's rows and more, yet
        # appends a fraction of it: only its new objects and its root.
        assert all(size < appended[0] for size in appended[1:])
        assert manager.objects_stored > 0
        for checkpoint in captures:
            assert contents(manager.load(checkpoint.seq)) == contents(checkpoint)
        assert manager.latest().seq == 4 and manager.next_seq() == 5
        assert CheckpointManager(tmp_path).next_seq() == 5

    def test_store_gc_copies_the_live_objects_once_garbage_outgrows_them(
        self, tmp_path
    ):
        manager = CheckpointManager(tmp_path, retain=2)
        generations = set()
        for seq in range(1, 25):
            # Each checkpoint's rows are new; the older ones turn garbage.
            assert manager.write(bare(seq, f"a{seq}", f"b{seq}"))
            generations.add(log_of(tmp_path).name)
            assert contents(manager.latest()) == contents(bare(seq, f"a{seq}", f"b{seq}"))
        assert len(generations) > 2
        assert manager.sequences() == [23, 24]
        live = len(log_of(tmp_path).read_bytes())
        assert live < manager.bytes_written / 4
        reopened = CheckpointManager(tmp_path, retain=2)
        assert reopened.sequences() == [23, 24]
        assert contents(reopened.load(23)) == contents(bare(23, "a23", "b23"))

    def test_latest_skips_a_torn_newest_root(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=3)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        manager.write(capture_checkpoint(2, interpreter, builder.dag))
        log = log_of(tmp_path)
        log.write_bytes(log.read_bytes()[:-5])
        assert CheckpointManager(tmp_path).latest().seq == 1

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
            {"seq": 3},                                     # KeyError
            ["not", "a", "dict"],                           # TypeError
            {**_EMPTY_ROOT, "rows": (b"x" * 32,)},          # an absent object
            {**_EMPTY_ROOT, "chains": {"skeletons": None}}, # a missing chain
        ],
    )
    def test_latest_skips_newest_with_a_foreign_shape(self, tmp_path, wire):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=3)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        append_root(log_of(tmp_path), wire)
        reopened = CheckpointManager(tmp_path, retain=3)
        with pytest.raises(CheckpointError):
            reopened.load(3)
        assert reopened.latest().seq == 1

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
        manager = CheckpointManager(tmp_path, retain=1)
        assert manager.write(capture_checkpoint(2, interpreter, builder.dag)) is False
        # Retention did not act on the strength of an append that is not
        # what was written; recovery falls back to the intact root.
        reopened = CheckpointManager(tmp_path, retain=1)
        assert reopened.sequences() == [1]
        assert reopened.latest().seq == 1

    def test_read_back_rejects_trailing_and_missing_bytes(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"HEADpayload")
        assert CheckpointManager._reads_back(path, b"HEADpayload")
        assert not CheckpointManager._reads_back(path, b"HEADpayloa")
        assert not CheckpointManager._reads_back(path, b"HEADpayload!")
        assert not CheckpointManager._reads_back(path, b"HEAXpayload")
        assert not CheckpointManager._reads_back(tmp_path / "gone", b"HEADpayload")
        # An append is compared from its offset on.
        assert CheckpointManager._reads_back(path, b"payload", 4)
        assert not CheckpointManager._reads_back(path, b"paylo", 4)
        assert not CheckpointManager._reads_back(path, b"HEADpayload", 4)

    def test_fsync_syncs_each_append_and_the_directory_of_a_new_file(
        self, tmp_path, monkeypatch
    ):
        first, second = growing_captures(2)
        events = []
        real_fsync = os.fsync

        def fsync(fd):
            events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        CheckpointManager(tmp_path / "off").write(bare(1, "a"))
        assert events == []
        manager = CheckpointManager(tmp_path / "on", fsync=True)
        assert manager.write(first)
        assert events == ["file", "dir"]
        del events[:]
        assert manager.write(second)
        assert events == ["file"] and manager.latest().seq == 2

    def test_fsync_orders_a_store_gc_copy_file_rename_directory(
        self, tmp_path, monkeypatch
    ):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        def replace(source, target):
            events.append("rename")
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        manager = CheckpointManager(tmp_path, retain=2, fsync=True)
        copies = []
        for seq in range(1, 13):
            del events[:]
            # Each checkpoint's rows are new; the older ones turn garbage.
            assert manager.write(bare(seq, f"a{seq}", f"b{seq}"))
            if "rename" in events:
                copies.append(list(events))
        # The append, then the copy: synced before it replaces the old
        # generation, and the directory synced after the rename.
        assert copies and all(c == ["file", "file", "rename", "dir"] for c in copies)
        assert manager.latest().seq == 12

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
        stale.write_bytes(b"half a copy")
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
    """What a crash or a bad disk leaves of an object log, and what the
    next write does about it."""

    @staticmethod
    def one_log(tmp_path, captures):
        """Write ``captures`` to one log; the offset each append ends at."""
        manager = CheckpointManager(tmp_path, retain=len(captures))
        ends = []
        for checkpoint in captures:
            assert manager.write(checkpoint)
            ends.append(log_of(tmp_path).stat().st_size)
        return log_of(tmp_path), ends

    def test_a_torn_last_root_gives_the_previous_checkpoint_and_is_cut_off(
        self, tmp_path
    ):
        captures = growing_captures(4)
        log, ends = self.one_log(tmp_path, captures)
        # A crash in the last bytes of the last append: its root.
        log.write_bytes(log.read_bytes()[: ends[3] - 5])
        reopened = CheckpointManager(tmp_path, retain=4)
        assert contents(reopened.latest()) == contents(captures[2])
        with pytest.raises(CheckpointError, match="no intact root"):
            reopened.load(4)
        assert reopened.next_seq() == 4
        # Its objects survived the tear; the next append cuts the torn
        # bytes off first, then lands where the reader finds it.
        assert reopened.write(captures[3])
        assert contents(reopened.latest()) == contents(captures[3])
        assert contents(CheckpointManager(tmp_path).latest()) == contents(captures[3])

    def test_a_garbled_object_costs_only_the_roots_that_reach_it(self, tmp_path):
        captures = growing_captures(4)
        log, ends = self.one_log(tmp_path, captures)
        data = bytearray(log.read_bytes())
        data[ends[2] + 20] ^= 0x01  # the first object of checkpoint 4's append
        log.write_bytes(bytes(data))
        reopened = CheckpointManager(tmp_path, retain=4)
        # The frames after it are read: checkpoint 4's root is there,
        # but it reaches the lost object.
        assert reopened.sequences() == [1, 2, 3, 4]
        with pytest.raises(CheckpointError, match="not in the store"):
            reopened.load(4)
        assert contents(reopened.latest()) == contents(captures[2])
        for checkpoint in captures[:3]:
            assert contents(reopened.load(checkpoint.seq)) == contents(checkpoint)
        # The next write appends behind the damage; it cuts nothing off.
        assert reopened.write(bare(5, "a"))
        assert log.read_bytes()[: len(data)] == bytes(data)
        assert CheckpointManager(tmp_path, retain=4).latest().seq == 5

    def test_a_garbled_early_object_keeps_every_root_that_does_not_reach_it(
        self, tmp_path
    ):
        manager = CheckpointManager(tmp_path, retain=2)
        assert manager.write(bare(1, "a1", "b1"))
        assert manager.write(bare(2, "a2", "b2"))
        log = log_of(tmp_path)
        data = bytearray(log.read_bytes())
        data[20] ^= 0x01  # inside the first frame: a row of checkpoint 1
        log.write_bytes(bytes(data))
        reopened = CheckpointManager(tmp_path, retain=2)
        assert reopened.sequences() == [1, 2]
        assert contents(reopened.latest()) == contents(bare(2, "a2", "b2"))
        with pytest.raises(CheckpointError):
            reopened.load(1)
        assert reopened.write(bare(3, "a3"))
        assert log.read_bytes()[: len(data)] == bytes(data)
        assert contents(CheckpointManager(tmp_path).latest()) == contents(bare(3, "a3"))

    def test_failed_read_back_of_an_append_retires_no_wal_record(
        self, tmp_path, monkeypatch
    ):
        storage = ServerStorage(tmp_path, StorageConfig())
        builder = ManualDagBuilder(3)
        for _ in range(4):
            for block in builder.round_all():
                storage.append_block(block)
            storage.flush_wal()
        skeletons = {
            b.ref: Block.stub(b.ref, b.n, b.k, b.preds, b.sigma, b.hz)
            for b in builder.dag.blocks()
        }

        def checkpoint(seq, covered):
            return stored(
                Checkpoint(seq=seq, states={}, skeletons=covered)
            )

        storage.write_checkpoint(checkpoint(1, {}))
        records = storage.wal.record_count()
        assert records == len(skeletons)
        with monkeypatch.context() as patch:
            flip_before_read_back(patch)
            # The skeletons that cover every record.
            storage.write_checkpoint(checkpoint(2, skeletons))
        assert storage.wal.record_count() == records
        assert storage.wal.stats.retired == 0
        assert CheckpointManager(tmp_path / "checkpoints").sequences() == [1]
        # The next write cuts the garbled append off and reads back, but
        # root 1, still retained, covers nothing: no record retires.
        storage.write_checkpoint(checkpoint(3, skeletons))
        assert storage.checkpoints.sequences() == [1, 3]
        assert storage.wal.record_count() == records
        # Once both retained roots cover them, every record retires.
        storage.write_checkpoint(checkpoint(4, skeletons))
        assert storage.checkpoints.sequences() == [3, 4]
        assert storage.wal.record_count() == 0
        assert storage.wal.stats.retired == records
        assert storage.checkpoints.latest().seq == 4
        storage.close()

    def test_checkpoint_after_a_trimmed_recovery_loads_as_a_fresh_capture(
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
        fresh = capture_checkpoint(written.seq, shim.interpreter, shim.dag)
        assert contents(shim.storage.checkpoints.latest()) == contents(fresh)
        shim.storage.close()


class _CountedValue(str):
    """A ledger value that counts how often the codec encodes it."""

    encodes = 0

    def encode(self, *args, **kwargs):
        _CountedValue.encodes += 1
        return super().encode(*args, **kwargs)


class TestNewEntryCost:
    """What a checkpoint appends for a new ledger entry is what its
    block wrote — the bucket the entry went to and the map naming the
    buckets — not what the ledger holds."""

    @staticmethod
    def appended_per_entry(directory: Path, entries: int) -> tuple[float, int]:
        """Bytes the second checkpoint appends per new entry, and how
        often its capture encoded a ledger value."""
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
        manager = CheckpointManager(directory)
        first = capture_checkpoint(1, interpreter, builder.dag)
        assert manager.write(first)

        for _ in range(4):
            round_with(1)
        interpreter.run()
        _CountedValue.encodes = 0
        before = manager.bytes_written
        second = capture_checkpoint(2, interpreter, builder.dag, previous=first)
        assert manager.write(second)
        assert len(second.states) == len(first.states) + 12
        return (manager.bytes_written - before) / 4, _CountedValue.encodes

    def test_values_encoded_stay_flat_in_the_ledger_size(self, tmp_path):
        _, small = self.appended_per_entry(tmp_path / "small", 64)
        _, large = self.appended_per_entry(tmp_path / "large", 256)
        assert 0 < small and large <= small

    @pytest.mark.xfail(
        strict=True,
        reason="the outer bucket map is one object naming every bucket, so "
        "each new entry still appends one name per sixteen entries "
        "(ROADMAP 18(d), open)",
    )
    def test_bytes_appended_stay_flat_in_the_ledger_size(self, tmp_path):
        small, _ = self.appended_per_entry(tmp_path / "small", 64)
        large, _ = self.appended_per_entry(tmp_path / "large", 256)
        # The ledger grew fourfold.  Measured: 4 548 -> 6 443 B per entry
        # (the log of deltas appended 9 479 -> 26 656).
        assert large <= 1.1 * small
