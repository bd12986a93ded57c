"""Byte-level fuzzing of WAL replay, seeded from the golden segments.

``ServerStorage.load_blocks`` decodes every record of a server's WAL.
Whatever the bytes on disk, opening the store and loading its blocks
(with ``ref`` computed on each) returns blocks or raises a
:class:`ReproError` — :class:`WalCorruptionError`, :class:`StorageError`
or :class:`CodecError` — never any other exception.  The damage is
applied to the committed ``s3`` segments: truncations at and around
each record boundary, and single payload-byte edits with the record's
CRC recomputed (so the decoder, not the integrity check, meets them).
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
    """``(offset, payload length)`` of each record in a segment."""
    found = []
    offset = 0
    while offset < len(data):
        length, _ = _HEADER.unpack_from(data, offset)
        found.append((offset, length))
        offset += _HEADER.size + length
    return found


@pytest.fixture(scope="module")
def golden() -> dict[str, bytes]:
    segments = {path.name: path.read_bytes() for path in sorted(GOLDEN.glob("wal-*.log"))}
    assert len(segments) > 1, "the golden WAL spans several segments"
    return segments


@pytest.fixture
def loads(tmp_path):
    """Writes a WAL, then opens the store and loads its blocks; fails on
    any exception but the storage and codec errors."""
    counts = {"loaded": 0, "WalCorruptionError": 0, "CodecError": 0}

    def check(segments: dict[str, bytes]) -> None:
        directory = tmp_path / f"run-{sum(counts.values())}"
        (directory / "wal").mkdir(parents=True)
        for name, data in segments.items():
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


def test_the_golden_wal_loads(golden, loads):
    loads(golden)
    assert loads.counts["loaded"] == 1


def test_truncation_at_and_around_every_record_boundary(golden, loads):
    for name, data in golden.items():
        boundaries = [offset for offset, _ in records(data)] + [len(data)]
        for boundary in boundaries:
            for cut in range(boundary - _HEADER.size - 1, boundary + _HEADER.size + 2):
                if 0 <= cut <= len(data):
                    loads({**golden, name: data[:cut]})
    # A torn tail of the newest segment is repaired; a cut anywhere
    # else is corruption.
    assert loads.counts == {"loaded": 89, "WalCorruptionError": 468, "CodecError": 0}


def test_single_byte_edits_with_the_crc_recomputed(golden, loads):
    rng = random.Random(20261018)
    names = sorted(golden)
    for _ in range(300):
        name = rng.choice(names)
        damaged = bytearray(golden[name])
        offset, length = rng.choice(records(golden[name]))
        start = offset + _HEADER.size
        damaged[start + rng.randrange(length)] = rng.randrange(256)
        _HEADER.pack_into(damaged, offset, length, zlib.crc32(damaged[start : start + length]))
        loads({**golden, name: bytes(damaged)})
    # An edit the codec or a block's shape check refuses, or a
    # well-formed block the signature check will refuse later.
    assert loads.counts == {"loaded": 94, "WalCorruptionError": 0, "CodecError": 206}
