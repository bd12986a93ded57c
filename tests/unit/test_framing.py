"""Wire framing: round-trips, partial-frame buffering, garbage resync.

The frame decoder is the live transport's first line of defence — a
killed peer tears a frame mid-write, and the survivor's stream must
recover at the next frame boundary without poisoning anything after
it.  Every damage mode the docstring promises is proven here.
"""

import random
import zlib
from pathlib import Path

import pytest

from repro.crypto.keys import KeyRing
from repro.dag import codec
from repro.net.live.framing import (
    HEADER_SIZE,
    MAGIC,
    FrameDecoder,
    Hello,
    encode_frame,
    register_wire_types,
)
from repro.net.message import BlockEnvelope, Envelope, FwdRequestEnvelope
from repro.net.simulator import NetworkSimulator
from repro.net.transport import SimTransport
from repro.protocols.brb import Broadcast
from repro.protocols.counter import counter_protocol
from repro.dag.block import Block
from repro.shim.shim import Shim
from repro.types import Label, ServerId, make_servers

register_wire_types()

S1 = ServerId("s1")


def sample_block(k: int = 0) -> Block:
    preds = (f"ref-{k - 1}",) if k else ()
    rs = ((Label(f"tx-{k}"), Broadcast(k)),)
    return Block(n=S1, k=k, preds=preds, rs=rs, sigma=b"sig")


def raw_frame(payload: bytes) -> bytes:
    """A well-framed, CRC-valid frame around arbitrary ``payload``."""
    return (
        MAGIC
        + len(payload).to_bytes(4, "big")
        + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")
        + payload
    )


class TestRoundTrip:
    def test_hello_round_trips(self):
        decoder = FrameDecoder()
        values = decoder.feed(encode_frame(Hello("s3")))
        assert values == [Hello("s3")]
        assert decoder.pending_bytes() == 0

    def test_block_envelope_round_trips(self):
        envelope = BlockEnvelope(sample_block(2))
        decoder = FrameDecoder()
        (value,) = decoder.feed(encode_frame(envelope))
        assert isinstance(value, BlockEnvelope)
        assert value.block == envelope.block
        assert value.block.rs == envelope.block.rs

    def test_fwd_request_round_trips(self):
        envelope = FwdRequestEnvelope("ref-a")
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(envelope)) == [envelope]

    def test_many_frames_in_one_chunk(self):
        frames = b"".join(encode_frame(Hello(f"s{i}")) for i in range(5))
        decoder = FrameDecoder()
        values = decoder.feed(frames)
        assert values == [Hello(f"s{i}") for i in range(5)]
        assert decoder.stats.frames_decoded == 5


class TestPartialFrames:
    def test_byte_at_a_time(self):
        frame = encode_frame(BlockEnvelope(sample_block(1)))
        decoder = FrameDecoder()
        values = []
        for i in range(len(frame)):
            values.extend(decoder.feed(frame[i : i + 1]))
        assert len(values) == 1
        assert decoder.pending_bytes() == 0
        assert decoder.stats.resyncs == 0

    def test_split_inside_header(self):
        frame = encode_frame(Hello("s1"))
        decoder = FrameDecoder()
        assert decoder.feed(frame[: HEADER_SIZE - 1]) == []
        assert decoder.feed(frame[HEADER_SIZE - 1 :]) == [Hello("s1")]

    def test_incomplete_tail_stays_buffered(self):
        frame = encode_frame(Hello("s1"))
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes() == len(frame) - 1


class TestResync:
    def test_garbage_prefix_skipped(self):
        frame = encode_frame(Hello("s1"))
        decoder = FrameDecoder()
        values = decoder.feed(b"\x00\x01\x02noise" + frame)
        assert values == [Hello("s1")]
        assert decoder.stats.bytes_skipped == 8
        assert decoder.stats.resyncs == 1

    def test_torn_frame_then_complete_frame(self):
        # A peer died mid-write: the stream holds the front half of one
        # frame, then (after reconnect) a complete retransmission.
        frame = encode_frame(BlockEnvelope(sample_block(3)))
        torn = frame[: len(frame) // 2]
        decoder = FrameDecoder()
        values = decoder.feed(torn + frame)
        assert len(values) == 1
        # The torn header's CRC check fails against the bytes that
        # follow, so resync walks forward to the real frame.
        assert decoder.stats.crc_failures >= 1
        assert decoder.stats.bytes_skipped >= len(torn)

    def test_corrupted_payload_byte_fails_crc(self):
        frame = bytearray(encode_frame(Hello("s1")))
        frame[-1] ^= 0xFF
        decoder = FrameDecoder()
        assert decoder.feed(bytes(frame)) == []
        assert decoder.stats.crc_failures >= 1
        # A later healthy frame still decodes.
        assert decoder.feed(encode_frame(Hello("s2"))) == [Hello("s2")]

    def test_implausible_length_does_not_buffer_forever(self):
        bogus = MAGIC + (2**31).to_bytes(4, "big") + b"\x00" * 4
        decoder = FrameDecoder(max_frame_bytes=1024)
        assert decoder.feed(bogus) == []
        assert decoder.feed(encode_frame(Hello("s1"))) == [Hello("s1")]

    def test_crc_valid_but_undecodable_payload_dropped_whole(self):
        decoder = FrameDecoder()
        frame = raw_frame(b"this is not a codec value")
        assert decoder.feed(frame + encode_frame(Hello("s1"))) == [Hello("s1")]
        assert decoder.stats.decode_failures == 1
        # The framing was intact: no byte-by-byte resync happened.
        assert decoder.stats.crc_failures == 0

    def test_hostile_payload_then_good_frame_in_one_chunk(self):
        # CRC-valid, but a list as a dict key: the decoder must count
        # the frame once and keep serving the rest of the chunk.
        key, value = codec.encode([1]), codec.encode(1)
        payload = b"".join(
            (
                b"d",
                (1).to_bytes(8, "big"),
                len(key).to_bytes(8, "big"),
                key,
                len(value).to_bytes(8, "big"),
                value,
            )
        )
        decoder = FrameDecoder()
        assert decoder.feed(raw_frame(payload) + encode_frame(Hello("s1"))) == [Hello("s1")]
        assert decoder.stats.decode_failures == 1
        assert decoder.stats.frames_decoded == 1
        assert decoder.stats.crc_failures == decoder.stats.resyncs == 0

    def test_magic_byte_dangling_at_chunk_boundary(self):
        # Garbage ending in the first magic byte: the decoder must keep
        # that byte, because the next chunk may complete the MAGIC.
        frame = encode_frame(Hello("s1"))
        decoder = FrameDecoder()
        assert decoder.feed(b"junk" + MAGIC[:1]) == []
        assert decoder.feed(MAGIC[1:] + frame[len(MAGIC) :]) == [Hello("s1")]


class TestRegistration:
    def test_register_is_idempotent(self):
        register_wire_types()
        register_wire_types()
        assert codec.decode(codec.encode(Hello("x"))) == Hello("x")

    def test_payload_is_canonical_codec_bytes(self):
        value = Hello("s9")
        frame = encode_frame(value)
        assert frame[HEADER_SIZE:] == codec.encode(value)


def unchecked(cls, **fields):
    """An instance built past ``__post_init__``: what a hostile peer's
    encoder can put on the wire."""
    value = object.__new__(cls)
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)
    return value


def block_with(**fields):
    good = dict(n="s1", k=0, preds=(), rs=(), sigma=b"sig", hz=())
    return BlockEnvelope(unchecked(Block, **{**good, **fields}))


class TestMalformedShapes:
    """A CRC-valid frame whose value decodes but has the wrong shape is
    refused by the decoder, as any other undecodable payload: the shape
    checks of ``Block`` and ``FwdRequestEnvelope`` run inside
    ``codec.decode``, so nothing of the wrong shape reaches gossip."""

    @pytest.mark.parametrize(
        "envelope",
        [
            block_with(sigma="sig"),
            block_with(hz=(1,)),
            block_with(hz=(("s1", "0"),)),
            block_with(n=1),
            block_with(k="0"),
            block_with(preds=[]),
            block_with(preds=(1,)),
            block_with(rs=(("l",),)),
            block_with(rs=((1, Broadcast(1)),)),
            unchecked(FwdRequestEnvelope, ref=["ref-a"]),
        ],
        ids=[
            "sigma-str", "hz-int", "hz-seq-str", "n-int", "k-str", "preds-list",
            "pred-int", "rs-one-tuple", "rs-label-int", "fwd-ref-list",
        ],
    )
    def test_refused_at_decode(self, envelope):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(envelope) + encode_frame(Hello("s1"))) == [Hello("s1")]
        assert decoder.stats.decode_failures == 1


GOLDEN_FRAMES = Path(__file__).parent.parent / "golden" / "frames.bin"


def frame_offsets(data: bytes) -> list[int]:
    offsets, offset = [], 0
    while offset < len(data):
        offsets.append(offset)
        offset += HEADER_SIZE + int.from_bytes(data[offset + 2 : offset + 6], "big")
    return offsets


def test_damaged_golden_frames_never_raise_out_of_the_shim():
    """Seeded fuzz of the receive path: the golden frames, cut into
    random chunks, with one payload byte edited and its frame's CRC
    recomputed, go through a ``FrameDecoder`` into a shim.  Whatever
    decodes, no exception leaves ``Shim.on_network``."""
    golden = GOLDEN_FRAMES.read_bytes()
    offsets = frame_offsets(golden)
    servers = make_servers(4)
    rng = random.Random(20261018)
    delivered = refused = 0
    for _ in range(300):
        data = bytearray(golden)
        start = rng.choice(offsets)
        length = int.from_bytes(data[start + 2 : start + 6], "big")
        payload = start + HEADER_SIZE
        data[payload + rng.randrange(length)] = rng.randrange(256)
        data[start + 6 : payload] = zlib.crc32(data[payload : payload + length]).to_bytes(4, "big")
        sim = NetworkSimulator()
        for peer in servers[1:]:
            sim.register(peer, lambda src, envelope: None)
        shim = Shim(servers[0], counter_protocol, KeyRing(servers), SimTransport(sim, servers[0]))
        decoder = FrameDecoder()
        cut = 0
        while cut < len(data):
            chunk = bytes(data[cut : cut + rng.randint(1, 400)])
            cut += len(chunk)
            for value in decoder.feed(chunk):
                if isinstance(value, Envelope):
                    shim.on_network(ServerId("s3"), value)
                    delivered += 1
        refused += decoder.stats.decode_failures
    assert delivered and refused
