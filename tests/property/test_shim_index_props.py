"""The shim's per-label indication index against the scan it replaced.

``Shim.indications_for`` used to filter the whole delivery history per
call; it now reads a per-label index kept beside the history.  Whatever
arrives — any labels, any interleaving, indications of other servers in
between — the index must answer exactly what the scan
(:func:`helpers.scan_indications`) answers, and a caller mutating an
answer must not reach the index.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scan_indications
from repro.crypto.keys import KeyRing
from repro.interpret.interpreter import IndicationEvent
from repro.net.simulator import NetworkSimulator
from repro.net.transport import SimTransport
from repro.protocols.brb import Deliver, brb_protocol
from repro.shim.shim import Shim
from repro.types import BlockRef, Label, make_servers

SERVERS = make_servers(4)
LABELS = [Label(f"l{i}") for i in range(5)]

events = st.lists(
    st.tuples(
        st.sampled_from(LABELS),
        st.integers(min_value=0, max_value=9),
        st.sampled_from(SERVERS),
    ),
    max_size=60,
)


def fresh_shim(on_indication=None) -> Shim:
    transport = SimTransport(NetworkSimulator(), SERVERS[0])
    return Shim(
        SERVERS[0], brb_protocol, KeyRing(SERVERS), transport,
        on_indication=on_indication,
    )


@settings(max_examples=200, deadline=None)
@given(events)
def test_index_equals_scan_for_every_label(sequence):
    fired = []
    shim = fresh_shim(on_indication=lambda label, ind: fired.append((label, ind)))
    for label, value, server in sequence:
        shim._on_event(
            IndicationEvent(label, Deliver(value), server, BlockRef("00" * 32))
        )
    own = [(l, Deliver(v)) for l, v, server in sequence if server == SERVERS[0]]
    assert shim.indications == own
    assert fired == own
    for label in LABELS + [Label("never-seen")]:
        assert shim.indications_for(label) == scan_indications(shim, label)


@settings(max_examples=50, deadline=None)
@given(events)
def test_answers_are_copies(sequence):
    shim = fresh_shim()
    for label, value, server in sequence:
        shim._on_event(
            IndicationEvent(label, Deliver(value), server, BlockRef("00" * 32))
        )
    before = {label: scan_indications(shim, label) for label in LABELS}
    for label in LABELS:
        answer = shim.indications_for(label)
        answer.append(Deliver("forged"))
        answer.clear()
    for label in LABELS:
        assert shim.indications_for(label) == before[label]
    assert shim.indications_for(Label("never-seen")) == []
    assert Label("never-seen") not in shim._by_label
