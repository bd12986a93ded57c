"""Byte-level fuzzing of WAL replay, seeded from the golden WAL file.

``ServerStorage.load_blocks`` decodes every record of a server's WAL.
Whatever the bytes on disk, opening the store and loading its blocks
(with ``ref`` computed on each) returns blocks or raises a
:class:`ReproError` — :class:`WalCorruptionError`, :class:`StorageError`
or :class:`CodecError` — never any other exception.  The damage is
applied to the committed ``s3`` WAL, one file: truncations at and
around each record boundary, holes from each of those points to the
next boundary, and single payload-byte edits with the record's CRC
recomputed (so the decoder, not the integrity check, meets them).
"""

import random
import zlib
from pathlib import Path

import pytest

from repro.errors import CodecError, StorageError
from repro.storage import ServerStorage
from repro.storage.wal import _HEADER

GOLDEN = Path(__file__).parent.parent / "golden" / "s3" / "wal"


def records(data: bytes) -> list[tuple[int, int]]:
    """``(offset, payload length)`` of each record in a WAL file."""
    found = []
    offset = 0
    while offset < len(data):
        length, _ = _HEADER.unpack_from(data, offset)
        found.append((offset, length))
        offset += _HEADER.size + length
    return found


@pytest.fixture(scope="module")
def golden() -> tuple[str, bytes]:
    (path,) = sorted(GOLDEN.glob("wal-*.log"))
    return path.name, path.read_bytes()


@pytest.fixture
def loads(tmp_path):
    """Writes a WAL file, then opens the store and loads its blocks;
    fails on any exception but the storage and codec errors."""
    counts = {"loaded": 0, "WalCorruptionError": 0, "CodecError": 0}

    def check(name: str, data: bytes) -> None:
        directory = tmp_path / f"run-{sum(counts.values())}"
        (directory / "wal").mkdir(parents=True)
        (directory / "wal" / name).write_bytes(data)
        try:
            blocks = ServerStorage(directory).load_blocks()
            for block in blocks:
                block.ref
        except (StorageError, CodecError) as exc:
            kind = type(exc).__name__
            counts[kind] = counts.get(kind, 0) + 1
            return
        counts["loaded"] += 1

    check.counts = counts
    return check


def cuts(data: bytes) -> list[tuple[int, int]]:
    """Each cut point at and around a record boundary, with the first
    boundary after it."""
    boundaries = [offset for offset, _ in records(data)] + [len(data)]
    found = []
    for boundary in boundaries:
        for cut in range(boundary - _HEADER.size - 1, boundary + _HEADER.size + 2):
            if 0 <= cut <= len(data):
                found.append((cut, next((b for b in boundaries if b > cut), len(data))))
    return found


def test_the_golden_wal_loads(golden, loads):
    loads(*golden)
    assert loads.counts["loaded"] == 1


def test_truncation_at_and_around_every_record_boundary(golden, loads):
    name, data = golden
    for cut, _ in cuts(data):
        loads(name, data[:cut])
    # Every cut of one file is a torn tail, repaired on open.
    assert loads.counts == {"loaded": 552, "WalCorruptionError": 0, "CodecError": 0}


def test_a_hole_from_every_cut_to_the_next_boundary(golden, loads):
    name, data = golden
    for cut, boundary in cuts(data):
        loads(name, data[:cut] + data[boundary:])
    # A whole record taken out leaves intact records; a hole inside one
    # leaves a record that fails its CRC or runs into the next —
    # corruption, except at the tail.
    assert loads.counts == {"loaded": 79, "WalCorruptionError": 473, "CodecError": 0}


def test_single_byte_edits_with_the_crc_recomputed(golden, loads):
    rng = random.Random(20261018)
    name, data = golden
    for _ in range(300):
        damaged = bytearray(data)
        offset, length = rng.choice(records(data))
        start = offset + _HEADER.size
        damaged[start + rng.randrange(length)] = rng.randrange(256)
        _HEADER.pack_into(damaged, offset, length, zlib.crc32(damaged[start : start + length]))
        loads(name, bytes(damaged))
    # An edit the codec or a block's shape check refuses, or a
    # well-formed block the signature check will refuse later.
    assert loads.counts == {"loaded": 110, "WalCorruptionError": 0, "CodecError": 190}
