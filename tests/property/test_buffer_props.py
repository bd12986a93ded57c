"""Property tests for ``Ms`` as runs: the buffers keep each label's
messages per receiver as one tuple, deduplicated and in ``<_M`` order,
and a successor's inbox is its predecessors' runs joined.  Every claim
is held against the set form it replaced — the set unions of
Algorithm 2 lines 6, 9 and 11 — and ``sorted(key=codec.encode)``."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dag import codec
from repro.interpret.buffers import MessageBuffers
from repro.interpret.order import joined, ordered
from repro.protocols.base import Message
from repro.protocols.brb import Echo, Ready
from repro.protocols.ledger import Entry
from repro.types import Label

from test_order_props import S2, S10, SIGMA, payloads

#: Ids whose text order and encoding order disagree ("s10" < "s2" as
#: text), plus one whose UTF-8 form is longer than its character count.
TRIO = (S2, S10, SIGMA)
LABELS = (Label("a"), Label("b"), Label("quiet"))


@st.composite
def emissions(draw):
    """The ``add_out`` calls one block's steps make: every message is
    sent by the block's builder, and a message may repeat within a call
    or across calls."""
    sender = draw(st.sampled_from(TRIO))
    sent = st.builds(Message, st.just(sender), st.sampled_from(TRIO), payloads)
    pool = draw(st.lists(sent, max_size=6))
    calls = draw(
        st.lists(
            st.tuples(
                st.sampled_from(LABELS),
                st.lists(st.sampled_from(pool), max_size=5) if pool else st.just([]),
            ),
            max_size=6,
        )
    )
    return calls


def set_form(calls):
    """``Ms[·, ℓ]`` as Algorithm 2 writes it: one set per stepped label."""
    sets: dict[Label, set[Message]] = {}
    for label, batch in calls:
        sets.setdefault(label, set()).update(batch)
    return sets


class TestOutRuns:
    @given(emissions())
    @settings(max_examples=200)
    def test_each_receivers_run_is_the_ordered_filter(self, calls):
        buffers = MessageBuffers()
        for label, batch in calls:
            buffers.add_out(label, batch)
        out = set_form(calls)
        for receiver in TRIO:
            expected = {
                label: tuple(ordered({m for m in sent if m.receiver == receiver}))
                for label, sent in out.items()
                if any(m.receiver == receiver for m in sent)
            }
            assert dict(buffers.outgoing_to(receiver)) == expected
        for label, sent in out.items():
            assert buffers.outgoing(label) == sorted(sent, key=codec.encode)

    @given(emissions(), emissions())
    @settings(max_examples=200)
    def test_snapshot_is_the_set_form(self, sent, received):
        buffers = MessageBuffers()
        for label, batch in sent:
            buffers.add_out(label, batch)
        for label, batch in received:
            if batch:  # line 9 writes no empty inbox
                buffers.add_in(label, batch)
        assert buffers.snapshot() == {
            "in": {
                label: frozenset(batch)
                for label, batch in set_form(received).items()
                if batch
            },
            # Stepped-but-silent labels keep their empty Ms[out, ℓ].
            "out": {label: frozenset(batch) for label, batch in set_form(sent).items()},
        }
        assert buffers.out_count() == sum(len(s) for s in set_form(sent).values())


#: One predecessor: its builder and what it emitted to the receiver.
predecessors = st.lists(
    st.tuples(st.sampled_from(TRIO), st.lists(payloads, max_size=4)),
    min_size=1,
    max_size=5,
)


class TestGatheredInbox:
    @given(predecessors)
    @settings(max_examples=300)
    # One builder twice, with the identical message in both runs: the
    # set union delivers it once.
    @example([(S2, [Echo(1)]), (S10, [Echo(2)]), (S2, [Echo(1), Ready(3)])])
    @example([(SIGMA, [Entry("v", 0)]), (SIGMA, [Entry("v", 0)])])
    # s10's run comes first as text and second as an encoding; s10
    # sends twice around s2.
    @example([(S10, [Echo(1), Echo(0)]), (S2, [Echo(1)]), (S10, [Echo(0), Ready(2)])])
    def test_inbox_is_the_sorted_union(self, preds):
        # The interpreter visits a block's predecessors in the order of
        # their builders' encodings.
        receiver = S10
        runs = []
        union = []
        for builder, sent in sorted(preds, key=lambda pred: codec.encode(pred[0])):
            buffers = MessageBuffers()
            buffers.add_out(Label("a"), [Message(builder, receiver, p) for p in sent])
            run = buffers.outgoing_to(receiver).get(Label("a"))
            if run is not None:
                runs.append((builder, run))
                union += run
        if not runs:
            return
        assert joined(runs) == tuple(sorted(set(union), key=codec.encode))
