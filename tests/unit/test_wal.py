"""Unit tests for the write-ahead log: framing, retirement and
compaction, crash tails, and the block store's retirement rule."""

import pytest

from repro.errors import WalCorruptionError
from repro.storage.wal import WriteAheadLog


def payloads(log):
    return [p for (_, p) in log.replay()]


def chain_blocks():
    """Three blocks of s1's chain, then one of s2 naming its tip."""
    from helpers import ManualDagBuilder

    builder = ManualDagBuilder(3)
    s1, s2, _ = builder.servers
    chain = [builder.block(s1) for _ in range(3)]
    return chain + [builder.block(s2, refs=[chain[-1]])]


class TestAppendReplay:
    def test_roundtrip_in_order(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        records = [f"record-{i}".encode() for i in range(20)]
        for record in records:
            log.append(record)
        log.close()
        assert payloads(WriteAheadLog(tmp_path)) == records

    def test_replay_on_same_handle(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append(b"a")
        log.append(b"b")
        assert payloads(log) == [b"a", b"b"]
        log.close()

    def test_empty_log(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        assert payloads(log) == []
        assert log.size_bytes() == 0

    def test_empty_payload_roundtrips(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append(b"")
        log.append(b"x")
        assert payloads(log) == [b"", b"x"]
        log.close()

    def test_stats_track_appends(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        for i in range(5):
            log.append(b"x" * i)
        assert log.stats.appends == 5
        assert log.record_count() == 5
        log.close()

    def test_one_file_and_numbers_in_append_order(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        numbers = [log.append(b"p" * 30) for _ in range(10)]
        assert numbers == list(range(10))
        assert [number for number, _ in log.replay()] == numbers
        assert [p.name for p in tmp_path.glob("wal-*.log")] == ["wal-00000001.log"]
        log.close()

    def test_reopen_continues_the_newest_file(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append(b"first")
        log.close()
        log2 = WriteAheadLog(tmp_path)
        log2.append(b"second")
        assert len(list(tmp_path.glob("wal-*.log"))) == 1
        assert payloads(log2) == [b"first", b"second"]
        log2.close()


class TestRetireAndCompact:
    """Retired records are dead bytes; once they outgrow the live ones,
    the live records are copied in order into the next generation."""

    def _filled(self, tmp_path, count=8):
        log = WriteAheadLog(tmp_path)
        numbers = [log.append(f"r{i}".encode() * 8) for i in range(count)]
        return log, numbers

    def test_retired_records_leave_replay_and_the_live_bytes(self, tmp_path):
        log, numbers = self._filled(tmp_path)
        size = log.size_bytes()
        log.retire(numbers[:2])
        assert payloads(log) == [f"r{i}".encode() * 8 for i in range(2, 8)]
        assert log.record_count() == 6 and log.stats.retired == 2
        # Dead bytes below the live ones: no copy yet.
        assert log.size_bytes() == size and log.live_bytes() == size * 6 // 8
        assert log.stats.compactions == 0
        log.close()

    def test_compacts_once_dead_bytes_outgrow_live(self, tmp_path):
        log, numbers = self._filled(tmp_path)
        log.retire(numbers[:5])
        assert log.stats.compactions == 1
        assert log.size_bytes() == log.live_bytes()
        assert [p.name for p in tmp_path.glob("wal-*.log")] == ["wal-00000002.log"]
        assert [n for n, _ in log.replay()] == numbers[5:]
        # Appends go on into the new generation; numbers stay unique.
        later = log.append(b"later")
        assert later == numbers[-1] + 1
        log.close()
        assert payloads(WriteAheadLog(tmp_path)) == [
            *(f"r{i}".encode() * 8 for i in range(5, 8)), b"later"
        ]

    def test_retiring_everything_leaves_an_empty_file(self, tmp_path):
        log, numbers = self._filled(tmp_path)
        log.retire(numbers)
        assert log.size_bytes() == 0 and payloads(log) == []
        log.append(b"next")
        log.close()
        assert payloads(WriteAheadLog(tmp_path)) == [b"next"]

    def test_a_copy_that_does_not_read_back_changes_nothing(self, tmp_path, monkeypatch):
        log, numbers = self._filled(tmp_path)
        monkeypatch.setattr("repro.storage.wal._reads_back", lambda *args: False)
        log.retire(numbers[:5])
        assert log.stats.compactions == 0
        assert [p.name for p in tmp_path.iterdir()] == ["wal-00000001.log"]
        assert [n for n, _ in log.replay()] == numbers[5:]
        monkeypatch.undo()
        log.retire(numbers[5:6])
        assert log.stats.compactions == 1
        assert [n for n, _ in log.replay()] == numbers[6:]

    def test_fsync_orders_copy_file_rename_directory(self, tmp_path, monkeypatch):
        import os
        import stat

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
        log = WriteAheadLog(tmp_path, fsync=True)
        numbers = [log.append(b"x" * 16) for _ in range(4)]
        log.retire(numbers[:3])
        # The open file synced as it closes, then the copy: synced before
        # it replaces the old generation, the directory after the rename.
        assert events == ["file", "file", "rename", "dir"]

    def test_stale_temp_file_is_removed_on_open(self, tmp_path):
        log, _ = self._filled(tmp_path)
        log.close()
        stale = tmp_path / "wal-00000002.tmp"  # crash mid-copy
        stale.write_bytes(b"half a copy")
        assert len(payloads(WriteAheadLog(tmp_path))) == 8
        assert not stale.exists()

    def test_a_crash_between_rename_and_unlink_replays_the_copies_too(self, tmp_path):
        log, numbers = self._filled(tmp_path)
        older = (tmp_path / "wal-00000001.log").read_bytes()
        log.retire(numbers[:5])
        log.close()
        # The unlink never happened.
        (tmp_path / "wal-00000001.log").write_bytes(older)
        reopened = WriteAheadLog(tmp_path)
        assert payloads(reopened) == [f"r{i}".encode() * 8 for i in (*range(8), *range(5, 8))]


class TestCrashTails:
    def _write(self, tmp_path, *records):
        log = WriteAheadLog(tmp_path)
        for record in records:
            log.append(record)
        log.close()

    def test_torn_header_truncated_on_reopen(self, tmp_path):
        self._write(tmp_path, b"intact-1", b"intact-2")
        (path,) = list(tmp_path.glob("wal-*.log"))
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")  # half a header
        log = WriteAheadLog(tmp_path)
        assert payloads(log) == [b"intact-1", b"intact-2"]
        assert log.stats.torn_bytes_truncated == 2

    def test_torn_payload_truncated_on_reopen(self, tmp_path):
        self._write(tmp_path, b"intact")
        (path,) = list(tmp_path.glob("wal-*.log"))
        import struct, zlib
        torn = b"this-payload-gets-cut"
        frame = struct.pack(">II", len(torn), zlib.crc32(torn)) + torn[:5]
        with open(path, "ab") as handle:
            handle.write(frame)
        log = WriteAheadLog(tmp_path)
        assert payloads(log) == [b"intact"]

    def test_append_after_tail_repair(self, tmp_path):
        self._write(tmp_path, b"one")
        (path,) = list(tmp_path.glob("wal-*.log"))
        with open(path, "ab") as handle:
            handle.write(b"\xff")  # torn garbage
        log = WriteAheadLog(tmp_path)
        log.append(b"two")
        assert payloads(log) == [b"one", b"two"]
        log.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        self._write(tmp_path, b"aaaa", b"bbbb", b"cccc")
        (path,) = list(tmp_path.glob("wal-*.log"))
        data = bytearray(path.read_bytes())
        # Flip a byte inside the *first* record's payload: real
        # corruption, not a torn tail — detected already at open.
        data[8] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path)

    def test_a_torn_older_file_raises(self, tmp_path):
        self._write(tmp_path, b"aaaa", b"bbbb")
        (path,) = list(tmp_path.glob("wal-*.log"))
        # Only the newest file may end in a torn write.
        (tmp_path / "wal-00000002.log").write_bytes(b"")
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path)


class TestServerStorageRecords:
    """ServerStorage buffers inserts and writes one record per block."""

    def test_flush_writes_one_record_per_block_and_roundtrips(self, tmp_path):
        from repro.storage.blockstore import ServerStorage, StorageConfig

        storage = ServerStorage(tmp_path, StorageConfig())
        chain = chain_blocks()
        for block in chain:
            storage.append_block(block)
        # Nothing durable until the flush...
        assert storage.wal.stats.appends == 0
        storage.flush_wal()
        # ...then one record per block.
        assert storage.wal.stats.appends == len(chain)
        assert storage.load_blocks() == chain
        storage.close()

    def test_close_flushes(self, tmp_path):
        from repro.storage.blockstore import ServerStorage, StorageConfig

        storage = ServerStorage(tmp_path, StorageConfig())
        chain = chain_blocks()
        for block in chain:
            storage.append_block(block)
        storage.close()
        reopened = ServerStorage(tmp_path, StorageConfig())
        assert reopened.load_blocks() == chain

    def test_crash_loses_only_the_unflushed_tail(self, tmp_path):
        from repro.storage.blockstore import ServerStorage, StorageConfig

        storage = ServerStorage(tmp_path, StorageConfig())
        chain = chain_blocks()
        for block in chain[:2]:
            storage.append_block(block)
        storage.flush_wal()
        for block in chain[2:]:
            storage.append_block(block)
        # Crash: abandon the object without flush/close.
        storage.abandon()
        survivor = ServerStorage(tmp_path, StorageConfig())
        assert survivor.load_blocks() == chain[:2]

    def test_a_block_met_twice_loads_once_and_its_copy_retires(self, tmp_path):
        from repro.dag import codec
        from repro.storage.blockstore import ServerStorage

        chain = chain_blocks()
        log = WriteAheadLog(tmp_path / "wal")
        for block in (*chain, *chain[2:]):
            log.append(codec.encode(block))
        log.close()
        storage = ServerStorage(tmp_path)
        assert storage.load_blocks() == chain
        assert storage.wal.record_count() == len(chain)
        assert storage.wal.stats.retired == 2


class TestServerStorageTelemetry:
    """The one telemetry handle: an attached MetricsRegistry gets the
    wall-clock histograms; without one the clock is never read."""

    def _storage(self, tmp_path):
        from repro.storage.blockstore import ServerStorage, StorageConfig

        return ServerStorage(tmp_path, StorageConfig())

    def _checkpoint(self, seq):
        from repro.storage.checkpoint import Checkpoint

        from helpers import stored

        return stored(Checkpoint(seq=seq, states={}))

    def test_registry_sees_one_observation_per_flush_and_checkpoint(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        storage = self._storage(tmp_path)
        storage.live_metrics = registry = MetricsRegistry()
        blocks = chain_blocks()
        storage.flush_wal()  # empty: not an observation
        for block in blocks[:2]:
            storage.append_block(block)
        storage.flush_wal()
        storage.append_block(blocks[2])
        storage.flush_wal()
        assert registry.histogram("storage.wal-flush").count == 2
        storage.close()
        storage.write_checkpoint(self._checkpoint(1))
        storage.write_checkpoint(self._checkpoint(2))
        assert registry.histogram("storage.checkpoint-write").count == 2
        # write_checkpoint's defensive flush had nothing pending.
        assert registry.histogram("storage.wal-flush").count == 2
        storage.close()

    def test_no_registry_never_reads_the_clock(self, tmp_path, monkeypatch):
        def no_clock():
            raise AssertionError("wall clock read with no registry attached")

        monkeypatch.setattr("repro.storage.blockstore.perf_counter", no_clock)
        storage = self._storage(tmp_path)
        blocks = chain_blocks()
        for block in blocks:
            storage.append_block(block)
        storage.flush_wal()
        storage.write_checkpoint(self._checkpoint(1))
        assert storage.load_blocks() == blocks
        assert storage.checkpoints.load(1).seq == 1
        storage.close()

    def test_checkpoint_observation_covers_the_read_back(self, tmp_path, monkeypatch):
        from repro.obs.metrics import MetricsRegistry
        from repro.storage.checkpoint import CheckpointManager

        storage = self._storage(tmp_path)
        storage.live_metrics = registry = MetricsRegistry()
        seen_during_read_back = []
        real = CheckpointManager._reads_back

        def watched(*frame):
            seen_during_read_back.append(
                registry.histogram("storage.checkpoint-write").count
            )
            return real(*frame)

        monkeypatch.setattr(CheckpointManager, "_reads_back", staticmethod(watched))
        storage.write_checkpoint(self._checkpoint(1))
        # Not yet observed while verifying; observed once after.
        assert seen_during_read_back == [0]
        assert registry.histogram("storage.checkpoint-write").count == 1

    def test_object_counters_tell_appended_from_stored(self, tmp_path):
        from helpers import stored
        from repro.storage.checkpoint import Checkpoint

        storage = self._storage(tmp_path)
        checkpoints = storage.checkpoints
        entry = {"pis": {}, "in": {}, "out": {}, "base": None}
        storage.write_checkpoint(
            stored(Checkpoint(seq=1, states={"a": entry, "b": entry}))
        )
        assert (checkpoints.objects_appended, checkpoints.objects_stored) == (2, 0)
        # Row ``a`` is the same object again: stored, not appended.
        storage.write_checkpoint(
            stored(Checkpoint(seq=2, states={"a": entry, "c": entry}))
        )
        assert (checkpoints.objects_appended, checkpoints.objects_stored) == (3, 1)


class TestRetainedRootsGateRetirement:
    """A WAL record retires only once every retained root reaches its
    block's skeleton, and only on roots that read back byte-equal to
    what was written."""

    def _filled(self, tmp_path):
        from helpers import ManualDagBuilder, stored
        from repro.storage.blockstore import ServerStorage, StorageConfig
        from repro.dag.block import Block
        from repro.storage.checkpoint import Checkpoint

        storage = ServerStorage(tmp_path, StorageConfig())
        builder = ManualDagBuilder(3)
        for _ in range(4):
            for block in builder.round_all():
                storage.append_block(block)
            storage.flush_wal()
        blocks = builder.dag.blocks()
        skeletons = {
            b.ref: Block.stub(b.ref, b.n, b.k, b.preds, b.sigma, b.hz) for b in blocks
        }

        def checkpoint(seq, count=len(blocks)):
            covered = {b.ref: skeletons[b.ref] for b in blocks[:count]}
            return stored(Checkpoint(seq=seq, states={}, skeletons=covered))

        return storage, checkpoint, blocks

    def test_a_record_retires_once_both_retained_roots_cover_it(self, tmp_path):
        storage, checkpoint, blocks = self._filled(tmp_path)
        storage.write_checkpoint(checkpoint(1, count=6))
        # Root 1 is the only one: the fresh handle knew no earlier root.
        assert storage.wal.record_count() == len(blocks)
        storage.write_checkpoint(checkpoint(2))
        # Roots 1 and 2 are retained; root 1 covers only six blocks.
        assert storage.wal.stats.retired == 6
        assert [b.ref for b in storage.load_blocks()] == [b.ref for b in blocks[6:]]
        storage.write_checkpoint(checkpoint(3))
        assert storage.wal.record_count() == 0

    def test_the_older_root_and_the_wal_still_hold_every_block(self, tmp_path):
        from repro.storage.blockstore import ServerStorage

        storage, checkpoint, blocks = self._filled(tmp_path)
        storage.write_checkpoint(checkpoint(1, count=6))
        storage.write_checkpoint(checkpoint(2, count=9))
        storage.write_checkpoint(checkpoint(3))
        storage.close()
        reopened = ServerStorage(tmp_path)
        wal = {b.ref for b in reopened.load_blocks()}
        for seq in reopened.checkpoints.sequences():
            older = reopened.checkpoints.load(seq)
            assert {b.ref for b in blocks} <= wal | set(older.skeletons), seq

    def test_a_fresh_handle_retires_nothing_at_its_first_write(self, tmp_path):
        from repro.storage.blockstore import ServerStorage

        storage, checkpoint, blocks = self._filled(tmp_path)
        storage.write_checkpoint(checkpoint(1))
        storage.close()
        reopened = ServerStorage(tmp_path)
        reopened.load_blocks()
        reopened.write_checkpoint(checkpoint(2))
        assert reopened.wal.record_count() == len(blocks)
        reopened.write_checkpoint(checkpoint(3))
        assert reopened.wal.record_count() == 0

    def test_records_never_replayed_on_this_handle_never_retire(self, tmp_path):
        from repro.storage.blockstore import ServerStorage

        storage, checkpoint, blocks = self._filled(tmp_path)
        storage.close()
        reopened = ServerStorage(tmp_path)
        reopened.write_checkpoint(checkpoint(1))
        reopened.write_checkpoint(checkpoint(2))
        assert reopened.wal.record_count() == len(blocks)

    def test_prune_off_retires_nothing(self, tmp_path):
        from repro.storage.blockstore import ServerStorage, StorageConfig

        storage, checkpoint, blocks = self._filled(tmp_path)
        storage.config = StorageConfig(prune=False)
        for seq in (1, 2, 3):
            storage.write_checkpoint(checkpoint(seq))
        assert storage.wal.record_count() == len(blocks)
        storage.close()

    def test_garbled_checkpoint_retires_nothing_and_the_next_two_do(
        self, tmp_path, monkeypatch
    ):
        from helpers import flip_before_read_back

        storage, checkpoint, blocks = self._filled(tmp_path)
        storage.write_checkpoint(checkpoint(1))
        with monkeypatch.context() as patch:
            flip_before_read_back(patch)
            storage.write_checkpoint(checkpoint(2))
        assert storage.wal.stats.retired == 0
        assert storage.wal.record_count() == len(blocks)
        # The disk behaves again: roots 1 and 3 both cover every block.
        storage.write_checkpoint(checkpoint(3))
        assert storage.wal.record_count() == 0
        assert storage.checkpoints.latest().seq == 3
