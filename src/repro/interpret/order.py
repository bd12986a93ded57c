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

Who sorts.  :func:`ordered` is called through :func:`run_of` only, and
only for two or more messages: once per run a block *emits* — its
messages for one label to one receiver — and when the buffers are
rebuilt from a checkpoint.  Every message in ``B'.Ms[out]`` is sent by
``B'.n``, so the line 9 union at a successor is disjoint across
builders and its ``<_M`` order is the builders' runs laid end to end in
the order of their encodings.  The interpreter visits a block's
predecessors in that order once per block, :func:`joined` lays each
label's runs end to end, and it sorts again only when two predecessors
share a builder (a builder that sealed twice between two of ``B.n``'s
seals, or an equivocator).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.dag.codec import encode
from repro.protocols.base import Message
from repro.types import ServerId

#: Each server id's sort key, kept by whoever sorts again and again
#: (an interpreter keeps one for its servers): see :func:`server_key`.
ServerKeys = dict[str, bytes]


def server_key(keys: ServerKeys, server: object) -> bytes:
    """``server``'s sort key, its canonical encoding: computed once per
    ``str`` id and kept in ``keys``.  Only an exact ``str`` is kept, so
    ``1`` and ``True`` — one dict key, two encodings — never share."""
    if type(server) is not str:
        return encode(server)
    key = keys.get(server)
    if key is None:
        key = keys[server] = encode(server)
    return key


def ordered(messages: Iterable[Message], keys: ServerKeys | None = None) -> list[Message]:
    """Messages sorted by ``<_M`` (Algorithm 2 line 10): by the two
    endpoint keys (a handful of server ids, each keyed once in ``keys``),
    a payload encoded only to separate messages that tie on both."""
    batch = list(messages)
    if len(batch) < 2:
        return batch
    if keys is None:
        keys = {}
    by_endpoints: dict[tuple[object, ...], list[Message]] = {}
    for message in batch:
        sender, receiver = message.sender, message.receiver
        # Keyed with the types: ``1`` and ``True`` are one dict key with
        # two encodings.
        by_endpoints.setdefault(
            (type(sender), sender, type(receiver), receiver), []
        ).append(message)
    result: list[Message] = []
    for endpoints in sorted(
        by_endpoints,
        key=lambda typed: (server_key(keys, typed[1]), server_key(keys, typed[3])),
    ):
        tied = by_endpoints[endpoints]
        if len(tied) > 1:
            tied.sort(key=lambda message: encode(message.payload))
        result.extend(tied)
    return result


def run_of(
    messages: Sequence[Message], keys: ServerKeys | None = None
) -> tuple[Message, ...]:
    """``messages`` as a run: in ``<_M`` order with duplicates dropped
    (the set unions of Algorithm 2 lines 6, 9 and 11).  A run of zero or
    one is taken as it is; a longer one is sorted by :func:`ordered`,
    after which equal messages are neighbours and no hashing is needed
    to drop them."""
    if len(messages) < 2:
        return tuple(messages)
    batch = ordered(messages, keys)
    run = [batch[0]]
    for message in batch[1:]:
        if message != run[-1]:
            run.append(message)
    return tuple(run)


def joined(
    runs: Sequence[tuple[ServerId, tuple[Message, ...]]], keys: ServerKeys | None = None
) -> tuple[Message, ...]:
    """The ``<_M``-ordered union of ``(sender, run)`` pairs given in the
    order of their senders' encodings (``s2`` before ``s10``), each run
    sent by its ``sender`` alone (Algorithm 2 lines 9–10).  Runs of
    distinct senders are disjoint, so they are laid end to end; two runs
    of one sender, neighbours in that order, are merged through
    :func:`run_of`."""
    if len(runs) == 1:
        return runs[0][1]
    inbox: list[Message] = []
    start = 0
    previous: object = None
    for sender, run in runs:
        if sender == previous:
            inbox[start:] = run_of([*inbox[start:], *run], keys)
        else:
            start = len(inbox)
            inbox += run
            previous = sender
    return tuple(inbox)
