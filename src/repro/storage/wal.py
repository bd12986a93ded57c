"""Append-only write-ahead log of canonical block encodings.

The WAL is the durability primitive behind the storage subsystem: every
block a server inserts into its DAG is appended *before* the insertion
takes effect, so after a crash the DAG — and, by Lemma 4.2, every
annotation the interpreter ever computed over it — is reconstructible
by replaying the log.  The format is deliberately minimal:

* the log is a directory of fixed-capacity **segment** files
  (``wal-00000001.log``, ``wal-00000002.log``, ...) so pruning can drop
  whole files once a checkpoint covers their contents;
* each record is ``length:u32 | crc32:u32 | payload``, where the CRC is
  over the payload.  Payloads are opaque bytes here; the block store
  layers the canonical codec (:mod:`repro.dag.codec`) on top.

Crash semantics: appends are flushed to the OS on every call (fsync is
optional — a simulated crash never loses the page cache), so the only
damage a crash can do is a *torn tail*: a final record whose header or
payload was cut short.  Opening a log repairs that by truncating the
last segment back to its final intact record.  A CRC failure anywhere
*else* is real corruption and raises :class:`WalCorruptionError` — the
log refuses to silently skip records, because replay order is the
recovery contract.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError, WalCorruptionError

#: Record header: payload length, crc32(payload).
_HEADER = struct.Struct(">II")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_index(path: Path) -> int:
    stem = path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(stem)


@dataclass
class WalStats:
    """Operational counters of one log handle."""

    appends: int = 0
    bytes_appended: int = 0
    segments_created: int = 0
    segments_dropped: int = 0
    torn_bytes_truncated: int = 0
    syncs: int = 0


@dataclass
class WalSegment:
    """One segment file as seen by this handle."""

    index: int
    path: Path
    records: int = 0
    size: int = 0
    refs: list[str] = field(default_factory=list)
    #: Chain key (builder id) of the last record appended by this
    #: handle — transient rotation state, never persisted.
    last_chain: str | None = None


class WriteAheadLog:
    """A segmented, CRC-framed append-only log.

    Parameters
    ----------
    directory:
        Where segment files live; created if missing.
    segment_max_bytes:
        Soft capacity: a segment is rolled once an append pushes it past
        this size (a single record may exceed it).
    fsync:
        Whether to ``os.fsync`` on :meth:`sync`/roll.  Off by default —
        simulated crashes never lose flushed pages, and the benchmarks
        measure log structure, not disk hardware.
    """

    def __init__(
        self,
        directory: str | Path,
        segment_max_bytes: int = 256 * 1024,
        fsync: bool = False,
        rotate_min_bytes: int | None = None,
    ) -> None:
        if segment_max_bytes < 1:
            raise ValueError(f"segment_max_bytes must be positive: {segment_max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        #: Builder-chain boundary rotation (GC alignment): once a
        #: segment is at least this full, the next append carrying a
        #: *different* ``chain_key`` rolls to a fresh segment.  Without
        #: it, segments end mid-chain wherever the byte cap happens to
        #: land, so in short runs nearly every segment interleaves
        #: retired (skeletal) refs with one live chain's tail and
        #: segment GC never fires.  Default: a quarter of the byte cap.
        self.rotate_min_bytes = (
            rotate_min_bytes
            if rotate_min_bytes is not None
            else max(1, segment_max_bytes // 4)
        )
        self.fsync = fsync
        self.stats = WalStats()
        self._segments: dict[int, WalSegment] = {}
        for path in sorted(self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")):
            index = _segment_index(path)
            self._segments[index] = WalSegment(
                index=index, path=path, size=path.stat().st_size
            )
        if self._segments:
            self._repair_tail(self._segments[max(self._segments)])
        self._active: WalSegment | None = None
        self._handle = None

    # -- appending ----------------------------------------------------------------

    def append(
        self,
        payload: bytes,
        ref: str | None = None,
        refs: "tuple[str, ...] | list[str] | None" = None,
        chain_key: str | None = None,
    ) -> int:
        """Append one record; returns the index of the segment it landed
        in.

        ``ref`` (one block) or ``refs`` (a chain frame holding several)
        tag the record with the block references it carries, so
        segment-granular pruning can check coverage.  ``chain_key``
        names the builder chain the record belongs to; an append whose
        key differs from the segment's previous record rotates the
        segment early once it is ``rotate_min_bytes`` full, aligning
        segment boundaries with builder-chain boundaries."""
        segment = self._writable_segment(len(payload), chain_key)
        record = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._handle.write(record)
        self._handle.flush()
        segment.records += 1
        segment.size += len(record)
        segment.last_chain = chain_key
        if ref is not None:
            segment.refs.append(ref)
        if refs is not None:
            segment.refs.extend(refs)
        self.stats.appends += 1
        self.stats.bytes_appended += len(record)
        return segment.index

    def _should_rotate(self, segment: WalSegment, chain_key: str | None) -> bool:
        if segment.size >= self.segment_max_bytes:
            return True
        return (
            chain_key is not None
            and segment.last_chain is not None
            and chain_key != segment.last_chain
            and segment.size >= self.rotate_min_bytes
        )

    def sync(self) -> None:
        """Flush (and optionally fsync) the active segment."""
        if self._handle is not None:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self.stats.syncs += 1

    def close(self) -> None:
        """Close the active handle (a *clean* shutdown; crashes just
        abandon the object — that is the case the log is designed for)."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None
            self._active = None

    def abandon(self) -> None:
        """Drop the active handle as a crash does: nothing is written,
        synced or counted.  Every append was flushed, so the disk holds
        what a real crash would leave."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._active = None

    def _writable_segment(
        self, payload_size: int, chain_key: str | None = None
    ) -> WalSegment:
        if self._active is not None and self._should_rotate(self._active, chain_key):
            self.close()
        if self._active is None:
            index = max(self._segments, default=0)
            current = self._segments.get(index)
            if current is None or current.size >= self.rotate_min_bytes:
                index += 1
                current = WalSegment(
                    index=index, path=self.directory / _segment_name(index)
                )
                self._segments[index] = current
                self.stats.segments_created += 1
            self._active = current
            self._handle = open(current.path, "ab")
        return self._active

    # -- reading ------------------------------------------------------------------

    def replay(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(segment_index, payload)`` for every record, in append
        order.  Re-derives per-segment record counts as a side effect so
        a reopened log can answer :meth:`segments` accurately."""
        for index in sorted(self._segments):
            segment = self._segments[index]
            segment.records = 0
            for payload in self._scan_segment(segment, repair=False):
                segment.records += 1
                yield index, payload

    def segments(self) -> list[WalSegment]:
        """Current segments, oldest first."""
        return [self._segments[i] for i in sorted(self._segments)]

    @property
    def active_index(self) -> int | None:
        """Index of the segment currently open for appends."""
        return self._active.index if self._active is not None else None

    def size_bytes(self) -> int:
        """Total bytes across live segments."""
        return sum(s.size for s in self._segments.values())

    def record_count(self) -> int:
        """Total records across live segments (accurate after a full
        :meth:`replay`, or on a handle that did all the appends)."""
        return sum(s.records for s in self._segments.values())

    # -- pruning ------------------------------------------------------------------

    def drop_segment(self, index: int) -> bool:
        """Delete one non-active segment file; returns whether it existed.

        The caller (the GC layer) is responsible for only dropping
        segments whose every record is covered by a durable checkpoint.
        """
        segment = self._segments.get(index)
        if segment is None:
            return False
        if self._active is not None and self._active.index == index:
            raise StorageError(f"refusing to drop the active segment {index}")
        segment.path.unlink(missing_ok=True)
        del self._segments[index]
        self.stats.segments_dropped += 1
        return True

    # -- internals ----------------------------------------------------------------

    def _scan_segment(self, segment: WalSegment, repair: bool) -> Iterator[bytes]:
        """Yield intact payloads of one segment.

        ``repair=True`` truncates a torn tail instead of raising; a CRC
        mismatch on a *complete* record raises either way.
        """
        try:
            data = segment.path.read_bytes()
        except FileNotFoundError:
            return
        offset = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                self._handle_tail(segment, data, offset, repair)
                return
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > len(data):
                self._handle_tail(segment, data, offset, repair)
                return
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                if end >= len(data):
                    # The final record is complete in length but fails
                    # its CRC: a torn write inside the payload.
                    self._handle_tail(segment, data, offset, repair)
                    return
                raise WalCorruptionError(
                    f"CRC mismatch in {segment.path.name} at offset {offset}"
                )
            yield payload
            offset = end

    def _handle_tail(
        self, segment: WalSegment, data: bytes, offset: int, repair: bool
    ) -> None:
        if not repair:
            raise WalCorruptionError(
                f"torn record in {segment.path.name} at offset {offset} "
                f"(open the log with WriteAheadLog() to repair the tail)"
            )
        torn = len(data) - offset
        with open(segment.path, "r+b") as handle:
            handle.truncate(offset)
        segment.size = offset
        self.stats.torn_bytes_truncated += torn

    def _repair_tail(self, segment: WalSegment) -> None:
        """Drop a torn final record left by a crash mid-append."""
        for _ in self._scan_segment(segment, repair=True):
            pass
