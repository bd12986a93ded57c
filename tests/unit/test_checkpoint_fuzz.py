"""Byte-level fuzzing of checkpoint loading, seeded from the golden log.

``CheckpointManager.latest()`` and ``load()`` fold a log of CRC-framed
frames: a full checkpoint, then deltas.  Whatever the bytes on disk,
they return a :class:`Checkpoint` or raise :class:`CheckpointError` —
never any other exception.  The damage is applied to the committed
``s3`` log (a full frame and one delta): truncations at and around each
frame boundary, single-byte edits with the frame's CRC recomputed (so
the decoder, not the integrity check, meets them) and a delta appended
twice.
"""

import random
import zlib
from pathlib import Path

import pytest

from repro.dag import codec
from repro.errors import CheckpointError
from repro.storage.checkpoint import _FRAME, Checkpoint, CheckpointManager

GOLDEN = Path(__file__).parent.parent / "golden" / "s3" / "checkpoints"
LOG = GOLDEN / "ckpt-00000002.bin"
SEQ = 2

#: Every one-byte type tag of the canonical codec.
TAGS = b"NftisblTdSD"


def frames(data: bytes) -> list[tuple[int, int]]:
    """``(offset, payload length)`` of each frame in a log."""
    found = []
    offset = 0
    while offset < len(data):
        length, _ = _FRAME.unpack_from(data, offset)
        found.append((offset, length))
        offset += _FRAME.size + length
    return found


def edited(data: bytes, frame: tuple[int, int], at: int, value: int) -> bytes:
    """``data`` with the payload byte ``at`` of ``frame`` set to
    ``value`` and that frame's CRC recomputed."""
    offset, length = frame
    damaged = bytearray(data)
    damaged[offset + _FRAME.size + at] = value
    start = offset + _FRAME.size
    _FRAME.pack_into(damaged, offset, length, zlib.crc32(damaged[start : start + length]))
    return bytes(damaged)


def key_value_tags(data: bytes, frame: tuple[int, int]) -> list[int]:
    """Payload offsets of the type tag of each top-level value of a
    frame — where a wire of the wrong shape starts."""
    offset, length = frame
    payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
    tags = []
    for key in codec.decode(payload):
        encoded = codec.encode(key)
        # A map value sits behind its key and an 8-byte length.
        at = payload.index(encoded) + len(encoded) + 8
        assert payload[at] in TAGS
        tags.append(at)
    return tags


@pytest.fixture(scope="module")
def golden() -> bytes:
    data = LOG.read_bytes()
    assert len(frames(data)) == 2, "the golden log is a full frame and one delta"
    return data


@pytest.fixture
def loads(tmp_path):
    """Writes a log, then loads it every way a recovery does; fails on
    any exception but :class:`CheckpointError`."""
    counts = {"loaded": 0, "refused": 0}

    def check(data: bytes) -> None:
        (tmp_path / LOG.name).write_bytes(data)
        manager = CheckpointManager(tmp_path)
        attempts = [manager.latest] + [
            (lambda seq=seq: manager.load(seq)) for seq in (SEQ, SEQ + 1, SEQ + 2)
        ]
        for attempt in attempts:
            try:
                result = attempt()
            except CheckpointError:
                counts["refused"] += 1
                continue
            assert result is None or isinstance(result, Checkpoint)
            counts["loaded"] += 1

    check.counts = counts
    return check


def test_the_golden_log_loads(golden, loads):
    loads(golden)
    assert loads.counts == {"loaded": 3, "refused": 1}


def test_truncation_at_and_around_every_frame_boundary(golden, loads):
    boundaries = [offset for offset, _ in frames(golden)] + [len(golden)]
    for boundary in boundaries:
        for cut in range(boundary - _FRAME.size - 1, boundary + _FRAME.size + 2):
            if 0 <= cut <= len(golden):
                loads(golden[:cut])
    assert loads.counts["refused"] > 0 and loads.counts["loaded"] > 0


def test_a_wrong_shape_at_every_top_level_value(golden, loads):
    # Among them the delta whose ``states`` decodes to a list, which
    # once escaped ``latest()`` as an AttributeError.
    for frame in frames(golden):
        for at in key_value_tags(golden, frame):
            for tag in TAGS:
                loads(edited(golden, frame, at, tag))
    assert loads.counts["refused"] > 0


def test_single_byte_edits_with_the_crc_recomputed(golden, loads):
    rng = random.Random(20261017)
    for frame in frames(golden):
        _, length = frame
        for _ in range(150):
            at = rng.randrange(length)
            value = rng.choice(TAGS) if rng.random() < 0.5 else rng.randrange(256)
            loads(edited(golden, frame, at, value))
    assert loads.counts["refused"] > 0


def test_a_delta_appended_twice(golden, loads):
    delta_offset, _ = frames(golden)[1]
    loads(golden + golden[delta_offset:])
    # The repeated delta ends the log: the fold stops at the first one.
    assert loads.counts == {"loaded": 3, "refused": 1}
