"""Algorithm 2, transcribed — the one oracle the suites diff against.

Lemma 4.2 and Theorem 5.1 make interpretation a pure function of the
block DAG, so a literal reading of Algorithm 2 judges any optimised
interpreter: rescan the DAG for the eligible frontier before every step
(line 3), ``copy.deepcopy`` the parent's whole ``PIs`` (line 4), gather
and deliver in ``<_M`` order — the whole message's canonical encoding
as the sort key (lines 7–11).  There is no scheduler
state, no structural sharing and no rehydration here — a block whose
predecessor's annotation was released is stranded for good, which is
what :attr:`ReferenceInterpreter.below_horizon` counts.
"""

from __future__ import annotations

import copy

from repro.dag import codec
from repro.dag.block import parent_of
from repro.dag.traversal import eligible_frontier
from repro.interpret.instance import BlockState
from repro.interpret.interpreter import IndicationEvent


class ReferenceInterpreter:
    def __init__(self, dag, protocol, servers, on_indication=None):
        self.dag = dag
        self.protocol = protocol
        self.servers = tuple(servers)
        self.on_indication = on_indication
        self.interpreted = set()  # I[B], line 2
        self.released = set()
        self.events = []
        self.blocks_interpreted = self.request_steps = 0
        self.messages_delivered = self.messages_materialized = 0
        self._states = {}
        self._active = {}
        self._stranded = set()

    @property
    def below_horizon(self):
        return len(self._stranded)

    def state_of(self, ref):
        return self._states[ref]

    def release_state(self, ref):
        del self._states[ref], self._active[ref]
        self.released.add(ref)

    def eligible(self):
        """Line 3, minus the blocks a released predecessor strands."""
        frontier = eligible_frontier(self.dag, self.interpreted)
        self._stranded.update(
            b.ref for b in frontier if self.released.intersection(b.preds)
        )
        return [b for b in frontier if b.ref not in self._stranded]

    def run(self, choose=None):
        start = len(self.events)
        while frontier := self.eligible():
            self.interpret_block(choose(frontier) if choose else frontier[0])
        return self.events[start:]

    def interpret_block(self, block):
        """Lines 4–14 for one eligible block."""
        assert block.ref not in self.interpreted, f"interpreted twice: {block!r}"
        assert self.interpreted.issuperset(block.preds), f"not eligible: {block!r}"
        assert self.released.isdisjoint(block.preds), f"stranded: {block!r}"
        start = len(self.events)
        preds = self.dag.predecessors(block)
        state = BlockState()
        parent = parent_of(block, preds)
        if parent is not None:
            state.pis = copy.deepcopy(self._states[parent.ref].pis)  # line 4
        for label, request in block.rs:  # lines 5–6
            self.request_steps += 1
            self._step(block, state, label, lambda pi: pi.step_request(request))
        active = frozenset().union(  # line 7: requests in the strict past
            *(self._active[p.ref] | {label for label, _ in p.rs} for p in preds)
        )
        # What lets an optimised interpreter keep no such set: a
        # predecessor holds Ms[out, ℓ] for B.n only if ℓ is in line 7's set.
        sent = {
            label
            for p in preds
            for label, run in self._states[p.ref].ms.runs()["out"].items()
            if any(message.receiver == block.n for message in run)
        }
        assert sent <= active, f"sent for {sorted(sent - active)}, never requested"
        for label in sorted(active):
            incoming = {  # lines 8–9
                message
                for p in preds
                for message in self._states[p.ref].ms.outgoing_for(label, block.n)
            }
            if not incoming:
                continue  # Ms[in, ℓ] ∪= ∅ leaves no entry behind
            state.ms.add_in(label, incoming)
            for message in sorted(incoming, key=codec.encode):  # lines 10–11
                self.messages_delivered += 1
                self._step(block, state, label, lambda pi: pi.step_message(message))
        self._states[block.ref] = state
        self._active[block.ref] = active
        self.interpreted.add(block.ref)  # line 12
        self.blocks_interpreted += 1
        return self.events[start:]

    def _step(self, block, state, label, action):
        instance = state.pis.get(label)
        if instance is None:
            instance = state.pis[label] = self.protocol.create(
                self.servers, block.n, label
            )
        result = action(instance)
        state.ms.add_out(label, result.messages)
        self.messages_materialized += len(result.messages)
        for indication in result.indications:  # lines 13–14
            event = IndicationEvent(label, indication, block.n, block.ref)
            self.events.append(event)
            if self.on_indication is not None:
                self.on_indication(event)
