"""Append-only write-ahead log of canonical block encodings.

The WAL is the durability primitive behind the storage subsystem: every
block a server inserts into its DAG is appended *before* the insertion
takes effect, so after a crash the DAG — and, by Lemma 4.2, every
annotation the interpreter ever computed over it — is reconstructible
by replaying the log.  The format is deliberately minimal:

* the log is one file, ``wal-<generation>.log``, of records ``length:u32
  | crc32:u32 | payload``, where the CRC is over the payload.  Payloads
  are opaque bytes here; the block store layers the canonical codec
  (:mod:`repro.dag.codec`) on top, one block per record;
* the log is indexed in memory: each live record by the number the
  handle gave it.  A record the caller *retires* is dead bytes; once
  those outgrow the live ones, the live records are copied in order
  into the next generation (:meth:`LogFiles.compact`, the copy the
  checkpoint object log compacts with too) and the older file goes.

Crash semantics: appends are flushed to the OS on every call (fsync is
optional — a simulated crash never loses the page cache), so the only
damage a crash can do is a *torn tail*: a final record whose header or
payload was cut short.  Opening a log repairs that by truncating the
newest file back to its final intact record.  A CRC failure anywhere
*else* is real corruption and raises :class:`WalCorruptionError` — the
log refuses to silently skip records, because replay order is the
recovery contract.  Replay reads every ``wal-*.log`` oldest first, so
a crash between a compaction's rename and its unlink leaves a log that
still replays (its records twice; the reader skips the copies).
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.errors import WalCorruptionError

#: Record header: payload length, crc32(payload).
_HEADER = struct.Struct(">II")

_PREFIX = "wal-"
_SUFFIX = ".log"
_TMP_SUFFIX = ".tmp"
#: Bytes read at a time while a compacted file is read back.
_CHUNK = 1 << 16


class LogFiles:
    """The files of one append-only log: generations
    ``<prefix><generation:08d><suffix>`` in one directory.  Appends go
    to the newest; :meth:`compact` copies the live records into the
    next and deletes the rest.  A temp file a crash left mid-copy is
    removed on open."""

    def __init__(self, directory: str | Path, prefix: str, suffix: str, fsync: bool) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix, self.suffix, self.fsync = prefix, suffix, fsync
        for stale in self.directory.glob(f"{prefix}*{_TMP_SUFFIX}"):
            stale.unlink(missing_ok=True)

    def _generation(self, path: Path) -> int:
        return int(path.name[len(self.prefix) : -len(self.suffix)])

    def paths(self) -> list[Path]:
        """The log's files, oldest generation first."""
        found = []
        for path in self.directory.glob(f"{self.prefix}*{self.suffix}"):
            try:
                found.append((self._generation(path), path))
            except ValueError:
                continue
        return [path for _, path in sorted(found)]

    def next_path(self) -> Path:
        """The file of the generation after the newest."""
        paths = self.paths()
        generation = self._generation(paths[-1]) if paths else 0
        return self.directory / f"{self.prefix}{generation + 1:08d}{self.suffix}"

    def sync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def compact(self, records: Iterable[tuple[Path, int, int]]) -> tuple[Path, list[int]] | None:
        """Copy each ``(file, offset, length)`` record, in order and one
        at a time, into the next generation: a temp file, read back
        against the CRC and length of what was copied, renamed, and only
        then the older files deleted.  Returns the new file and each
        record's offset in it, or ``None`` — the temp file gone, the log
        as it was — when the copy does not read back."""
        older = self.paths()
        target = self.next_path()
        tmp = target.with_suffix(_TMP_SUFFIX)
        offsets: list[int] = []
        crc = size = 0
        with ExitStack() as opened, open(tmp, "wb") as out:
            sources: dict[Path, BinaryIO] = {}
            for path, offset, length in records:
                if path not in sources:
                    sources[path] = opened.enter_context(open(path, "rb"))
                sources[path].seek(offset)
                record = sources[path].read(length)
                offsets.append(size)
                out.write(record)
                crc, size = zlib.crc32(record, crc), size + len(record)
            if self.fsync:
                out.flush()
                os.fsync(out.fileno())
        if not _reads_back(tmp, crc, size):
            tmp.unlink(missing_ok=True)
            return None
        tmp.replace(target)
        if self.fsync:
            self.sync_directory()
        for path in older:
            path.unlink(missing_ok=True)
        return target, offsets


def _reads_back(path: Path, crc: int, size: int) -> bool:
    """Whether ``path`` holds exactly ``size`` bytes whose CRC is ``crc``."""
    seen = read = 0
    try:
        with open(path, "rb") as handle:
            while chunk := handle.read(_CHUNK):
                seen, read = zlib.crc32(chunk, seen), read + len(chunk)
    except OSError:
        return False
    return (seen, read) == (crc, size)


@dataclass
class WalStats:
    """Operational counters of one log handle."""

    appends: int = 0
    #: Records retired, and the compactions that dropped their bytes.
    retired: int = 0
    compactions: int = 0
    torn_bytes_truncated: int = 0


class WriteAheadLog:
    """A CRC-framed append-only log in one file that compacts itself.

    Parameters
    ----------
    directory:
        Where the log's file lives; created if missing.
    fsync:
        Whether to ``os.fsync`` on :meth:`sync` and compaction.  Off by
        default — simulated crashes never lose flushed pages, and the
        benchmarks measure log structure, not disk hardware.
    """

    def __init__(self, directory: str | Path, fsync: bool = False) -> None:
        self.files = LogFiles(directory, _PREFIX, _SUFFIX, fsync)
        self.directory = self.files.directory
        self.stats = WalStats()
        #: Every live record, ``number -> (file, offset, record
        #: length)``, in append order; and the next number to give.
        self._records: dict[int, tuple[Path, int, int]] = {}
        self._next = 0
        #: Bytes across the log's files, and the live records' share.
        self._size = self._live = 0
        #: The newest file, which appends go to, and where it ends.
        self._path: Path | None = None
        self._end = 0
        paths = self.files.paths()
        for path in paths:
            self._index(path, newest=path == paths[-1])
        self._handle = None

    # -- appending ----------------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Append one record; returns its number, which :meth:`replay`
        yields beside it and :meth:`retire` takes."""
        if self._handle is None:
            if self._path is None:
                self._path = self.files.next_path()
            self._handle = open(self._path, "ab")
        record = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._handle.write(record)
        self._handle.flush()
        self.stats.appends += 1
        self._end += len(record)
        return self._add(self._path, self._end - len(record), len(record))

    def sync(self) -> None:
        """Flush (and optionally fsync) the open file."""
        if self._handle is not None:
            self._handle.flush()
            if self.files.fsync:
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the open handle (a *clean* shutdown; crashes just
        abandon the object — that is the case the log is designed for)."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def abandon(self) -> None:
        """Drop the open handle as a crash does: nothing is written or
        synced.  Every append was flushed, so the disk holds what a real
        crash would leave."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading ------------------------------------------------------------------

    def replay(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(number, payload)`` for every live record, in append
        order."""
        files: dict[Path, bytes] = {}
        for number, (path, offset, length) in self._records.items():
            if path not in files:
                files = {path: path.read_bytes()}
            yield number, files[path][offset + _HEADER.size : offset + length]

    def size_bytes(self) -> int:
        """Bytes across the log's files, live records and dead."""
        return self._size

    def live_bytes(self) -> int:
        """Bytes of the records not retired."""
        return self._live

    def record_count(self) -> int:
        """Live records."""
        return len(self._records)

    # -- retiring -----------------------------------------------------------------

    def retire(self, numbers: Iterable[int]) -> None:
        """Drop records from the log's live set; once the dead bytes
        outgrow the live ones, compact.

        The caller (the block store) is responsible for only retiring a
        record another durable copy can stand in for."""
        for number in numbers:
            _, _, length = self._records.pop(number)
            self._live -= length
            self.stats.retired += 1
        if self._size > 2 * self._live:
            self._compact()

    def _compact(self) -> None:
        self.close()
        placed = self.files.compact(self._records.values())
        if placed is None:
            return
        target, offsets = placed
        self._records = {
            number: (target, offset, length)
            for (number, (_, _, length)), offset in zip(self._records.items(), offsets)
        }
        self._path, self._size = target, self._live
        self._end = self._live
        self.stats.compactions += 1

    # -- internals ----------------------------------------------------------------

    def _add(self, path: Path, offset: int, length: int) -> int:
        number = self._next
        self._next += 1
        self._records[number] = (path, offset, length)
        self._size += length
        self._live += length
        return number

    def _index(self, path: Path, newest: bool) -> None:
        """Number ``path``'s records; a torn tail of the newest file is
        cut off, any other damage raises."""
        data = path.read_bytes()
        offset = 0
        while offset < len(data):
            end = offset + _HEADER.size
            if end <= len(data):
                length, crc = _HEADER.unpack_from(data, offset)
                end += length
            if end > len(data) or zlib.crc32(data[offset + _HEADER.size : end]) != crc:
                # A record cut short, or complete in length but failing
                # its CRC as the last one: a torn write.  Failing its
                # CRC with a record after it: corruption.
                if end < len(data) or not newest:
                    raise WalCorruptionError(
                        f"{'CRC mismatch' if end <= len(data) else 'torn record'} "
                        f"in {path.name} at offset {offset}"
                    )
                with open(path, "r+b") as handle:
                    handle.truncate(offset)
                self.stats.torn_bytes_truncated += len(data) - offset
                break
            self._add(path, offset, end - offset)
            offset = end
        self._path, self._end = path, offset
