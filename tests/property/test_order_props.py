"""Property test for ``<_M``: ``ordered`` against the computation it
replaced — ``sorted(messages, key=codec.encode)``, the whole message's
canonical encoding as the sort key.  ``ordered`` compares the endpoint
encodings first and encodes a payload only on a tie; the claim is that
this is the *same* order, bit for bit, not another admissible one."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dag import codec
from repro.interpret.order import ordered
from repro.protocols.base import Message
from repro.protocols.brb import Echo, Ready
from repro.protocols.ledger import Entry
from repro.protocols.pbft import Commit, Prepare, ViewChange
from repro.types import ServerId, make_servers

# Twelve servers so id lengths differ ("s2" sorts after "s10" as text
# and before it as an encoding), plus an id whose UTF-8 form is longer
# than its character count.  A small pool, so batches tie on
# (sender, receiver) all the time.
ENDPOINTS = [*make_servers(12), ServerId("σ7")]

values = st.one_of(
    st.integers(min_value=-2, max_value=300),
    st.text(max_size=3),
    st.none(),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)
views = st.integers(min_value=0, max_value=2)
payloads = st.one_of(
    st.builds(Echo, values),
    st.builds(Ready, values),
    st.builds(Entry, values, views),
    st.builds(Prepare, views, values),
    st.builds(Commit, views, values),
    st.builds(ViewChange, views, st.integers(-1, 1), values),
)
messages = st.builds(
    Message, st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS), payloads
)

S2, S10, SIGMA = ServerId("s2"), ServerId("s10"), ServerId("σ7")


def encodings(batch):
    return [codec.encode(m) for m in batch]


class TestOrderedAgainstTheEncodingOrder:
    @given(st.lists(messages, max_size=14))
    @settings(max_examples=300)
    @example([])
    @example([Message(S2, S10, Echo(1))])
    # Raw-id order and encoding order disagree on s2 / s10.
    @example([Message(S10, S2, Echo(1)), Message(S2, S10, Echo(1))])
    # A tie on both endpoints: payload class, then payload value, decide.
    @example(
        [
            Message(S2, S10, Ready(1)),
            Message(S2, S10, Echo(2)),
            Message(S2, S10, Echo(1)),
            Message(S2, S10, Commit(0, 1)),
            Message(S2, S10, Entry(1, 0)),
            Message(SIGMA, S10, Prepare(1, "v")),
        ]
    )
    # An exact duplicate: one element of a set, adjacent in a list.
    @example([Message(SIGMA, S2, Echo(1)), Message(SIGMA, S2, Echo(1))])
    def test_same_order_as_sorting_by_the_whole_encoding(self, batch):
        for collection in (batch, set(batch)):
            oracle = sorted(collection, key=codec.encode)
            result = ordered(collection)
            assert result == oracle
            assert encodings(result) == sorted(encodings(collection))

    @given(st.sets(messages, max_size=8), st.data())
    def test_independent_of_input_order(self, batch, data):
        # "Arbitrary, but fixed" (§2): a set iterates in any order.
        shuffled = data.draw(st.permutations(list(batch)))
        assert ordered(shuffled) == ordered(batch)
