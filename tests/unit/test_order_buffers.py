"""Unit tests for the <_M order and the per-block message buffers."""

from itertools import permutations

from repro.dag import codec
from repro.interpret.buffers import MessageBuffers
from repro.interpret import order
from repro.interpret.order import ordered
from repro.protocols.base import Message
from repro.protocols.brb import Echo, Ready
from repro.types import Label, ServerId

S1, S2 = ServerId("s1"), ServerId("s2")
L = Label("l")


def msg(sender=S1, receiver=S2, value=1, kind=Echo):
    return Message(sender, receiver, kind(value))


class TestMessageOrder:
    def test_total_on_distinct_messages(self):
        messages = [
            msg(value=1),
            msg(value=2),
            msg(sender=S2, receiver=S1, value=1),
            msg(kind=Ready, value=1),
        ]
        # One order whatever the input order: no two of them tie.
        assert len({tuple(ordered(p)) for p in permutations(messages)}) == 1

    def test_fixed_across_runs(self):
        # The order is 'arbitrary but fixed' (§2): content-derived, so
        # reconstructing equal messages yields the same sequence.
        assert ordered([msg(value=7), msg(value=3)]) == ordered(
            [msg(value=3), msg(value=7)]
        )

    def test_strictness(self):
        a, b = msg(value=1), msg(value=2)
        assert ordered([a, b]) == ordered([b, a]) == [a, b]
        assert codec.encode(a) < codec.encode(b)

    def test_ordered_is_sorted_and_stable(self):
        # Pinned to the codec, not to ``ordered`` itself: senders whose
        # ids order differently as text ("s10" < "s2") and as encodings,
        # and a (sender, receiver) tie only the payload can break.
        s10 = ServerId("s10")
        messages = [
            msg(sender=s10, value=1),
            msg(sender=S2, value=3),
            msg(sender=S2, value=1, kind=Ready),
            msg(sender=S2, value=2),
            msg(sender=S1, receiver=s10),
            msg(sender=S1, receiver=S2),
        ]
        result = ordered(messages)
        assert result == sorted(messages, key=codec.encode)
        assert result.index(msg(sender=S2, value=3)) < result.index(msg(sender=s10))

    def test_endpoints_that_are_equal_as_dict_keys_do_not_alias(self):
        # ``1 == True`` and they hash alike, but they encode differently
        # (int / bool tags): a memo keyed by the endpoint value would
        # hand one of them the other's key.  Both call orders, so that
        # whichever is seen first cannot poison the second.
        for first, second in ((1, True), (True, 1)):
            warm = [msg(sender=first, value=1), msg(sender=first, value=2)]
            assert ordered(warm) == sorted(warm, key=codec.encode)
            mixed = [
                msg(sender=second, value=1),
                msg(sender=first, value=1),
                msg(sender=S1, receiver=second),
                msg(sender=S1, receiver=first),
            ]
            result = ordered(mixed)
            assert [codec.encode(m) for m in result] == sorted(
                codec.encode(m) for m in mixed
            )

    def test_batches_of_zero_and_one_come_back_as_lists(self):
        assert ordered(()) == []
        assert ordered({msg()}) == [msg()]

    def test_ordered_accepts_any_iterable(self):
        assert ordered(iter([msg(value=2), msg(value=1)]))[0].payload.value == 1


class TestServerKeys:
    def test_a_second_sort_encodes_no_server_id(self, monkeypatch):
        """Once each id is keyed, sorting again — a run by ``<_M``, a
        block's receivers for ``runs()`` — encodes no server id."""
        servers = [ServerId(f"s{i}") for i in (1, 2, 10)]
        messages = [
            msg(sender=sender, receiver=receiver)
            for sender in servers for receiver in servers
        ]
        buffers = MessageBuffers()
        buffers.add_out(L, [m for m in messages if m.sender == S1], {})
        keys: dict = {}
        first = (ordered(messages, keys), buffers.runs(keys)["out"])
        encoded = []
        real_encode = order.encode

        def encode(value):
            encoded.append(value)
            return real_encode(value)

        monkeypatch.setattr(order, "encode", encode)
        assert (ordered(messages, keys), buffers.runs(keys)["out"]) == first
        assert first[0] == sorted(messages, key=codec.encode)
        assert not [value for value in encoded if value in servers]
        # Without kept keys, each call keys every id it sorts by again.
        ordered(messages)
        assert {value for value in encoded if value in servers} == set(servers)


class TestMessageBuffers:
    def test_starts_empty(self):
        buffers = MessageBuffers()
        assert buffers.incoming(L) == []
        assert buffers.outgoing(L) == []
        assert buffers.in_count() == 0
        assert buffers.out_count() == 0

    def test_add_out_and_read_ordered(self):
        buffers = MessageBuffers()
        buffers.add_out(L, [msg(value=2), msg(value=1)])
        values = [m.payload.value for m in buffers.outgoing(L)]
        assert values == sorted(values)

    def test_set_semantics_dedupe(self):
        # Lines 9/11 are set unions: identical messages collapse.
        buffers = MessageBuffers()
        buffers.add_in(L, [msg(value=1)])
        buffers.add_in(L, [msg(value=1)])
        assert buffers.in_count() == 1

    def test_labels_are_independent(self):
        buffers = MessageBuffers()
        other = Label("other")
        buffers.add_out(L, [msg(value=1)])
        buffers.add_out(other, [msg(value=2)])
        assert [m.payload.value for m in buffers.outgoing(L)] == [1]
        assert [m.payload.value for m in buffers.outgoing(other)] == [2]

    def test_outgoing_for_filters_receiver(self):
        buffers = MessageBuffers()
        to_s1 = Message(S2, S1, Echo(1))
        to_s2 = Message(S1, S2, Echo(1))
        buffers.add_out(L, [to_s1, to_s2])
        assert buffers.outgoing_for(L, S1) == [to_s1]
        assert buffers.outgoing_for(L, S2) == [to_s2]

    def test_outgoing_to_is_the_filter_for_every_label_at_once(self):
        # The receiver-first index answers exactly what the per-label
        # line 9 filter answers, for the labels that have an answer:
        # each as one run, deduplicated and in <_M order.
        buffers = MessageBuffers()
        other, quiet = Label("other"), Label("quiet")
        buffers.add_out(L, [msg(value=2), msg(value=1), msg(receiver=S1)])
        buffers.add_out(other, [msg(value=3)])
        buffers.add_out(L, [msg(value=1)])  # a duplicate emission collapses
        buffers.add_out(quiet, [])
        for receiver in (S1, S2, ServerId("s3")):
            assert buffers.outgoing_to(receiver) == {
                label: tuple(
                    sorted(
                        {m for m in buffers.outgoing(label) if m.receiver == receiver},
                        key=codec.encode,
                    )
                )
                for label in (L, other, quiet)
                if buffers.outgoing_for(label, receiver)
            }
        assert buffers.outgoing_to(S2) == {
            L: (msg(value=1), msg(value=2)),
            other: (msg(value=3),),
        }

    def test_counts(self):
        buffers = MessageBuffers()
        buffers.add_in(L, [msg(value=1), msg(value=2)])
        buffers.add_out(L, [msg(value=3)])
        assert buffers.in_count() == 2
        assert buffers.out_count() == 1

    def test_snapshot_is_frozen(self):
        buffers = MessageBuffers()
        buffers.add_in(L, [msg(value=1)])
        snap = buffers.snapshot()
        assert isinstance(snap["in"][L], frozenset)
        buffers.add_in(L, [msg(value=2)])
        assert len(snap["in"][L]) == 1
