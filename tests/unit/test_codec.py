"""Unit tests for the canonical codec — injectivity, round trips, <_M keys."""

from dataclasses import dataclass, fields

import pytest

from repro.dag import codec
from repro.dag.block import Block
from repro.errors import CodecError
from repro.types import Request, ServerId


@dataclass(frozen=True)
class Point(Request):
    x: int
    y: int


class TestEncodeBasics:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**100, -(2**100), "", "héllo", b"", b"\x00"],
    )
    def test_deterministic(self, value):
        assert codec.encode(value) == codec.encode(value)

    def test_bool_is_not_int(self):
        assert codec.encode(True) != codec.encode(1)
        assert codec.encode(False) != codec.encode(0)

    def test_str_is_not_bytes(self):
        assert codec.encode("a") != codec.encode(b"a")

    def test_list_is_not_tuple(self):
        assert codec.encode([1, 2]) != codec.encode((1, 2))

    def test_nesting_boundaries(self):
        assert codec.encode([["a"], ["b"]]) != codec.encode([["a", "b"]])
        assert codec.encode(["ab"]) != codec.encode(["a", "b"])

    def test_dict_key_order_is_canonical(self):
        assert codec.encode({"a": 1, "b": 2}) == codec.encode({"b": 2, "a": 1})

    def test_set_order_is_canonical(self):
        assert codec.encode({3, 1, 2}) == codec.encode({2, 3, 1})

    def test_unsupported_type_raises(self):
        with pytest.raises(CodecError):
            codec.encode(object())

    def test_float_unsupported(self):
        # Floats are deliberately unsupported: cross-platform float
        # formatting would threaten determinism.
        with pytest.raises(CodecError):
            codec.encode(1.5)


class TestCallerWrittenItems:
    """A tuple, tagged pair or dataclass value whose items the caller
    writes behind the codec's head encodes as the value it stands for,
    so the caller never writes a frame."""

    ITEMS = [1, "x", (2, [3]), None, Point(1, 2)]

    @staticmethod
    def items(items):
        out = bytearray()
        for item in items:
            codec.write_value(item, out)
        return bytes(out)

    def test_tuple(self):
        data = codec.tuple_head(len(self.ITEMS)) + self.items(self.ITEMS)
        assert data == codec.encode(tuple(self.ITEMS))

    @pytest.mark.parametrize("items", [[], ITEMS])
    def test_tagged_tuple(self, items):
        data = codec.tuple_head(2) + self.items(["l"]) + codec.tuple_head(len(items))
        assert data + self.items(items) == codec.encode(("l", tuple(items)))

    @pytest.mark.parametrize("value", [0, "a", b"b", (1,), {"k": [1]}, Point(3, 4)])
    def test_pair(self, value):
        data = codec.tuple_head(2) + self.items(["a", value])
        assert data == codec.encode(("a", value))

    def test_dataclass(self):
        assert codec.dataclass_head(Point) + self.items([3, 4]) == codec.encode(Point(3, 4))


class TestDataclassEncoding:
    def test_dataclass_roundtrip(self):
        point = Point(1, 2)
        assert codec.decode(codec.encode(point)) == point

    def test_distinct_classes_distinct_encodings(self):
        @dataclass(frozen=True)
        class Point2(Request):
            x: int
            y: int

        assert codec.encode(Point(1, 2)) != codec.encode(Point2(1, 2))

    def test_field_values_matter(self):
        assert codec.encode(Point(1, 2)) != codec.encode(Point(2, 1))


class TestDecode:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            42,
            -42,
            2**64,
            "text",
            b"bytes",
            [1, "a", None],
            (1, (2, 3)),
            {"k": [1, 2], "j": None},
        ],
    )
    def test_roundtrip(self, value):
        assert codec.decode(codec.encode(value)) == value

    def test_set_decodes_to_frozenset(self):
        assert codec.decode(codec.encode({1, 2})) == frozenset({1, 2})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(codec.encode(1) + b"x")

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(codec.encode("hello")[:-1])

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(b"\xff")

    def test_unregistered_dataclass_rejected(self):
        data = bytearray(codec.encode(Point(1, 2)))
        # Corrupt the class name so the registry lookup fails.
        index = data.find(b"Point")
        data[index : index + 5] = b"Qoint"
        with pytest.raises(CodecError):
            codec.decode(bytes(data))

    def test_invalid_utf8_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(b"s" + (1).to_bytes(8, "big") + b"\xff")

    def test_register_dataclass_requires_dataclass(self):
        with pytest.raises(CodecError):
            codec.register_dataclass(int)


def framed(payload: bytes) -> bytes:
    """``payload`` as one length-prefixed dict-key/set-member slot."""
    return len(payload).to_bytes(8, "big") + payload


def dataclass_of(name: bytes, field_tuple: bytes) -> bytes:
    return b"D" + len(name).to_bytes(4, "big") + name + field_tuple


def block_fields(**changes) -> bytes:
    """The encoded field tuple of a genesis block, with ``changes``."""
    block = Block(n=ServerId("s1"), k=0, preds=(), rs=())
    values = {f.name: getattr(block, f.name) for f in fields(Block)}
    values.update(changes)
    return codec.encode(tuple(values.values()))


ONE = (1).to_bytes(8, "big")


class TestHostilePayloads:
    """Well-framed bytes that are not a value raise :class:`CodecError`
    and nothing else, so a frame decoder can drop them and go on."""

    def test_list_as_dict_key(self):
        data = b"d" + ONE + framed(codec.encode([1])) + framed(codec.encode(1))
        with pytest.raises(CodecError):
            codec.decode(data)

    def test_list_as_set_member(self):
        with pytest.raises(CodecError):
            codec.decode(b"S" + ONE + framed(codec.encode([1])))

    @pytest.mark.parametrize("not_a_tuple", [7, [1, 2]], ids=["int", "list"])
    def test_dataclass_fields_not_a_tuple(self, not_a_tuple):
        with pytest.raises(CodecError):
            codec.decode(dataclass_of(b"Point", codec.encode(not_a_tuple)))

    def test_dataclass_with_wrong_arity(self):
        with pytest.raises(CodecError):
            codec.decode(dataclass_of(b"Point", codec.encode((1,))))

    def test_block_with_negative_sequence_number(self):
        assert codec.decode(dataclass_of(b"Block", block_fields())).k == 0
        with pytest.raises(CodecError):
            codec.decode(dataclass_of(b"Block", block_fields(k=-1)))

    def test_nesting_too_deep(self):
        with pytest.raises(CodecError):
            codec.decode((b"l" + ONE) * 5000 + b"N")


class TestEncodingKey:
    def test_total_order_is_consistent(self):
        values = [1, 2, "a", "b", (1,), (2,)]
        keys = [codec.encoding_key(v) for v in values]
        assert len(set(keys)) == len(values)
        # Sorting twice gives the same order — it's a genuine total order.
        once = sorted(values, key=codec.encoding_key)
        twice = sorted(once, key=codec.encoding_key)
        assert once == twice
