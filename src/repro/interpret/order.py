"""The total message order ``<_M`` (paper §2, used in Algorithm 2 line 10).

The paper assumes "an arbitrary, but fixed, total order on messages".
Its only job is to make every server feed buffered messages to a
process instance in the same sequence, so interpretation is a pure
function of the DAG.  We realize it as lexicographic order on the
canonical encoding of messages — total because the encoding is
injective, fixed because the encoding is content-only.

The order is computed without encoding the message.  ``encode(m)`` is a
constant prefix, then ``encode(m.sender) + encode(m.receiver) +
encode(m.payload)``, and every codec value is self-delimiting (tag plus
length), so no encoding is a proper prefix of another: byte order on
the whole *equals* tuple order on the three parts.  The parts are
compared as encodings, never as raw ids (``"s10" < "s2"`` as text, but
the length prefix puts ``encode("s2")`` first).  ``tests/`` holds
``ordered`` against ``sorted(key=codec.encode)``.
"""

from __future__ import annotations

from typing import Iterable

from repro.dag.codec import encode
from repro.protocols.base import Message

_ENDPOINT_KEYS: dict[str, bytes] = {}  # lint: registry — memo of codec.encode on server-id strings; an entry is a pure function of its key and never changes


def _endpoint_key(endpoint: object) -> bytes:
    """``encode(endpoint)``, memoised for exact ``str`` only: ``1`` and
    ``True`` are one dict key with two encodings."""
    if type(endpoint) is not str:
        return encode(endpoint)
    key = _ENDPOINT_KEYS.get(endpoint)
    if key is None:
        key = _ENDPOINT_KEYS[endpoint] = encode(endpoint)
    return key


def ordered(messages: Iterable[Message]) -> list[Message]:
    """Messages sorted by ``<_M`` (Algorithm 2 line 10): by the two
    endpoint encodings (a handful of server ids), a payload encoded
    only to separate messages that tie on both."""
    batch = list(messages)
    if len(batch) < 2:
        return batch
    by_endpoints: dict[tuple[bytes, bytes], list[Message]] = {}
    for message in batch:
        by_endpoints.setdefault(
            (_endpoint_key(message.sender), _endpoint_key(message.receiver)), []
        ).append(message)
    result: list[Message] = []
    for endpoints in sorted(by_endpoints):
        tied = by_endpoints[endpoints]
        if len(tied) > 1:
            tied.sort(key=lambda message: encode(message.payload))
        result.extend(tied)
    return result
