"""Byte-level fuzzing of checkpoint loading, seeded from the golden store.

``CheckpointManager.latest()`` and ``load()`` read a log of CRC-framed
frames — objects named by the hash of their bytes, and roots.  Whatever
the bytes on disk, they return a :class:`Checkpoint` equal to the one
the intact store holds under that sequence number, fall back to an
older retained root, or raise :class:`CheckpointError` — never any
other exception, never a wrong state.  The damage is applied to the
committed ``s3`` store: truncations at and around each frame boundary,
a wrong shape at each top-level value of a root (renamed, so the
decoder meets it), single-byte edits with the frame's CRC recomputed, a
frame appended twice, an object whose bytes do not hash to its name and
a root that names an absent object.
"""

import random
import zlib
from pathlib import Path

import pytest

from repro.dag import codec
from repro.errors import CheckpointError
from repro.storage.checkpoint import (
    _FRAME,
    _HEAD,
    _OBJECT,
    _ROOT,
    Checkpoint,
    CheckpointManager,
    _append_frame,
    root_name,
)
from repro.storage.state_codec import object_name

GOLDEN = Path(__file__).parent.parent / "golden" / "s3" / "checkpoints"
(LOG,) = GOLDEN.glob("ckpt-*.bin")

#: Every one-byte type tag of the canonical codec.
TAGS = b"NftisblTdSD"


def frames(data: bytes) -> list[tuple[int, int, bytes]]:
    """``(offset, payload length, kind)`` of each frame in a log."""
    found = []
    offset = 0
    while offset < len(data):
        length, _ = _FRAME.unpack_from(data, offset)
        kind = data[offset + _FRAME.size : offset + _FRAME.size + 1]
        found.append((offset, length, kind))
        offset += _FRAME.size + length
    return found


def name_of(kind: bytes, body: bytes) -> bytes:
    return object_name(body) if kind == _OBJECT else root_name(body)


def edited(data: bytes, frame, at: int, value: int, rename: bool = False) -> bytes:
    """``data`` with the body byte ``at`` of ``frame`` set to ``value``
    and that frame's CRC recomputed — and, with ``rename``, its name,
    so the frame is authentic and only its contents are wrong."""
    offset, length, kind = frame
    damaged = bytearray(data)
    start = offset + _FRAME.size
    damaged[start + _HEAD + at] = value
    if rename:
        body = bytes(damaged[start + _HEAD : start + length])
        damaged[start + 1 : start + _HEAD] = name_of(kind, body)
    _FRAME.pack_into(damaged, offset, length, zlib.crc32(damaged[start : start + length]))
    return bytes(damaged)


def body_of(data: bytes, frame) -> bytes:
    offset, length, _ = frame
    return data[offset + _FRAME.size + _HEAD : offset + _FRAME.size + length]


def key_value_tags(data: bytes, frame) -> list[int]:
    """Body offsets of the type tag of each top-level value of a root —
    where a wire of the wrong shape starts."""
    body = body_of(data, frame)
    tags = []
    for key in codec.decode(body):
        encoded = codec.encode(key)
        # A map value sits behind its key and an 8-byte length.
        at = body.index(encoded) + len(encoded) + 8
        assert body[at] in TAGS
        tags.append(at)
    return tags


def contents(checkpoint: Checkpoint) -> bytes:
    """Everything a checkpoint says, canonically encoded."""
    return codec.encode(
        (
            checkpoint.seq,
            sorted(checkpoint.refs),
            {str(r): (e["base"], e["pis"], e["in"], e["out"])
             for r, e in checkpoint.states.items()},
            sorted(checkpoint.released),
            {str(r): (s.n, s.k, s.preds, s.sigma, s.hz)
             for r, s in checkpoint.skeletons.items()},
            tuple((str(e.label), e.indication, str(e.server), str(e.block_ref))
                  for e in checkpoint.events),
            checkpoint.counters,
        )
    )


@pytest.fixture(scope="module")
def golden() -> bytes:
    data = LOG.read_bytes()
    kinds = [kind for *_, kind in frames(data)]
    assert kinds.count(_ROOT) >= 2 and kinds[-1] == _ROOT
    return data


@pytest.fixture(scope="module")
def truth(tmp_path_factory) -> dict[int, bytes]:
    """What the intact store says under each sequence number it holds a
    root for."""
    directory = tmp_path_factory.mktemp("intact")
    (directory / LOG.name).write_bytes(LOG.read_bytes())
    manager = CheckpointManager(directory)
    return {seq: contents(manager.load(seq)) for seq in manager._roots}


@pytest.fixture
def loads(tmp_path, truth):
    """Writes a store, then loads it every way a recovery does; fails
    on any exception but :class:`CheckpointError` and on any checkpoint
    that is not the intact store's for its sequence number — unless the
    damage is ``authentic``: a root edited *and renamed* is one the
    store cannot tell from a real one, so only its shape is judged."""
    counts = {"loaded": 0, "refused": 0, "fell back": 0}
    newest = max(truth)

    def check(data: bytes, authentic: bool = False) -> None:
        (tmp_path / LOG.name).write_bytes(data)
        manager = CheckpointManager(tmp_path)
        attempts = [manager.latest] + [
            (lambda seq=seq: manager.load(seq)) for seq in (*truth, newest + 1)
        ]
        for attempt in attempts:
            try:
                result = attempt()
            except CheckpointError:
                counts["refused"] += 1
                continue
            counts["loaded"] += 1
            if result is None:
                continue
            assert isinstance(result, Checkpoint)
            if not authentic:
                assert contents(result) == truth[result.seq], result.seq
            counts["fell back"] += attempt is attempts[0] and result.seq < newest

    check.counts = counts
    return check


def test_the_golden_store_loads(golden, loads, truth):
    loads(golden)
    assert loads.counts == {"loaded": 1 + len(truth), "refused": 1, "fell back": 0}


def test_truncation_at_and_around_every_frame_boundary(golden, loads):
    boundaries = [offset for offset, *_ in frames(golden)] + [len(golden)]
    for boundary in boundaries:
        for cut in range(boundary - _FRAME.size - 1, boundary + _FRAME.size + 2):
            if 0 <= cut <= len(golden):
                loads(golden[:cut])
    assert loads.counts["refused"] > 0 and loads.counts["fell back"] > 0


def test_a_wrong_shape_at_every_top_level_value_of_a_root(golden, loads):
    roots = [frame for frame in frames(golden) if frame[2] == _ROOT]
    for frame in roots:
        for at in key_value_tags(golden, frame):
            for tag in TAGS:
                loads(edited(golden, frame, at, tag, rename=True), authentic=True)
    assert loads.counts["refused"] > 0 and loads.counts["fell back"] > 0


def test_single_byte_edits_with_the_crc_recomputed(golden, loads):
    rng = random.Random(20261018)
    every = frames(golden)
    for frame in rng.sample(every, min(len(every), 40)) + [f for f in every if f[2] == _ROOT]:
        for _ in range(8):
            at = rng.randrange(frame[1] - _HEAD)
            value = rng.choice(TAGS) if rng.random() < 0.5 else rng.randrange(256)
            loads(edited(golden, frame, at, value))
    assert loads.counts["refused"] > 0


def test_a_frame_appended_twice(golden, loads, truth):
    offset, length, _ = frames(golden)[-1]
    loads(golden + golden[offset : offset + _FRAME.size + length])
    first_object = next(f for f in frames(golden) if f[2] == _OBJECT)
    start, size, _ = first_object
    loads(golden + golden[start : start + _FRAME.size + size])
    assert loads.counts == {"loaded": 2 * (1 + len(truth)), "refused": 2, "fell back": 0}


def test_an_object_whose_bytes_do_not_hash_to_its_name(golden, loads):
    for frame in frames(golden):
        if frame[2] == _OBJECT:
            loads(edited(golden, frame, (frame[1] - _HEAD) // 2, 0x00))
            loads(edited(golden, frame, 0, TAGS[0]))
    # An object only the newest root reaches costs that root, not the
    # older one.
    assert loads.counts["refused"] > 0 and loads.counts["fell back"] > 0


def test_a_root_that_names_an_absent_object(golden, loads, truth):
    newest = max(truth)
    for missing in ("rows", "chains"):
        wire = codec.decode(body_of(golden, frames(golden)[-1]))
        wire["seq"] = newest + 1
        absent = bytes(range(32))
        if missing == "rows":
            wire["rows"] = (*wire["rows"], absent)
        else:
            wire["chains"] = {**wire["chains"], "events": absent}
        data = codec.encode(wire)
        frame = bytearray()
        _append_frame(frame, _ROOT, root_name(data), data)
        loads(golden + bytes(frame))
    # The newest intact root stands in for it.
    assert loads.counts["refused"] >= 2 and loads.counts["fell back"] == 0
