"""Property tests for the canonical codec — the foundation of ``ref``
determinism and the ``<_M`` total order."""

from enum import IntEnum

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec
from repro.dag import codec
from repro.dag.block import Block
from repro.protocols.base import Message
from repro.protocols.brb import Broadcast, Echo, Ready
from repro.protocols.ledger import Append, Entry
from repro.types import Label, ServerId

# Encodable value trees (no floats by design).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=30),
    st.binary(max_size=30),
)


def trees(depth=3):
    if depth == 0:
        return scalars
    sub = trees(depth - 1)
    return st.one_of(
        scalars,
        st.lists(sub, max_size=4),
        st.lists(sub, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), sub, max_size=4),
    )


class TestEncodeProperties:
    @given(trees())
    def test_deterministic(self, value):
        assert codec.encode(value) == codec.encode(value)

    @given(trees(), trees())
    def test_injective_on_distinct_values(self, a, b):
        if a != b:
            assert codec.encode(a) != codec.encode(b)

    @given(trees())
    @settings(max_examples=200)
    def test_roundtrip(self, value):
        decoded = codec.decode(codec.encode(value))
        assert decoded == value

    @given(st.lists(st.integers(), max_size=6))
    def test_key_ordering_is_total_and_stable(self, values):
        keys = sorted(codec.encoding_key(v) for v in values)
        assert keys == sorted(keys)
        # Sorting values by key twice is idempotent.
        once = sorted(values, key=codec.encoding_key)
        assert sorted(once, key=codec.encoding_key) == once

    @given(st.dictionaries(st.text(max_size=5), st.integers(), max_size=5))
    def test_dict_encoding_is_order_independent(self, d):
        reversed_d = dict(reversed(list(d.items())))
        assert codec.encode(d) == codec.encode(reversed_d)

    @given(st.sets(st.integers(), max_size=6))
    def test_set_roundtrips_to_frozenset(self, s):
        assert codec.decode(codec.encode(s)) == frozenset(s)


# -- the writer table against the reference encoder ---------------------------


class Colour(IntEnum):
    RED = 1
    BLUE = 300


servers = st.sampled_from(["s1", "s2", "s3", "s4"]).map(ServerId)
small = st.one_of(st.booleans(), st.integers(-3, 300), st.text(max_size=6))
requests = st.one_of(st.builds(Broadcast, small), st.builds(Append, small))
messages = st.builds(
    Message,
    servers,
    servers,
    st.one_of(st.builds(Echo, small), st.builds(Ready, small), st.builds(Entry, small, st.integers(0, 3))),
)
blocks = st.builds(
    Block,
    n=servers,
    k=st.integers(0, 40),
    preds=st.lists(st.text("0123456789abcdef", max_size=8), max_size=3).map(tuple),
    rs=st.lists(st.tuples(st.text(max_size=4).map(Label), requests), max_size=3).map(tuple),
    sigma=st.binary(max_size=8),
)

#: Leaves that may be dict keys and set members: ``bool`` beside
#: ``int`` (``True == 1`` but they encode apart), an ``IntEnum``, and
#: the frozen dataclasses that cross the wire.
hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(Colour),
    st.text(max_size=8),
    st.binary(max_size=8),
    requests,
    messages,
    blocks,
)


def hashables(depth):
    if depth == 0:
        return hashable_leaves
    sub = hashables(depth - 1)
    return st.one_of(
        hashable_leaves,
        st.lists(sub, max_size=3).map(tuple),
        st.frozensets(sub, max_size=3),
    )


def mixed(depth):
    """Trees mixing every container and ``bytearray``."""
    leaves = st.one_of(hashable_leaves, st.binary(max_size=8).map(bytearray))
    if depth == 0:
        return leaves
    sub = mixed(depth - 1)
    keys = hashables(1)
    return st.one_of(
        leaves,
        st.lists(sub, max_size=3),
        st.lists(sub, max_size=3).map(tuple),
        st.dictionaries(keys, sub, max_size=3),
        st.sets(keys, max_size=3),
        st.frozensets(keys, max_size=3),
        st.builds(Message, servers, servers, sub.map(lambda value: Entry(value, 0))),
    )


def spine(depth):
    """A value with one path ``depth`` containers deep (random siblings
    at every level), so the nesting the writers must get right is
    always there."""
    if depth == 0:
        return mixed(1)
    inner = spine(depth - 1)
    siblings = st.lists(mixed(1), max_size=2)
    entries = st.dictionaries(hashables(1), mixed(1), max_size=2)
    return st.one_of(
        st.tuples(inner, siblings).map(lambda p: [*p[1], p[0]]),
        st.tuples(inner, siblings).map(lambda p: (p[0], *p[1])),
        st.tuples(hashables(1), inner, entries).map(lambda p: {**p[2], p[0]: p[1]}),
        st.tuples(inner, siblings).map(lambda p: {"pis": p[0], "rest": p[1]}),
        st.builds(Message, servers, servers, inner.map(Echo)),
    )


class TestAgainstReferenceEncoder:
    """``encode`` writes the reference encoder's bytes, byte for byte."""

    @given(spine(4))
    @settings(max_examples=300)
    def test_deep_spines(self, value):
        assert codec.encode(value) == reference_codec.encode(value)

    @given(mixed(4))
    @settings(max_examples=300)
    def test_mixed_trees(self, value):
        assert codec.encode(value) == reference_codec.encode(value)
        assert codec.encoding_key(value) == reference_codec.encode(value)

    @given(st.sets(hashables(2), max_size=5), st.dictionaries(hashables(2), mixed(2), max_size=5))
    def test_sorted_containers(self, members, entries):
        assert codec.encode(members) == reference_codec.encode(members)
        assert codec.encode(entries) == reference_codec.encode(entries)
