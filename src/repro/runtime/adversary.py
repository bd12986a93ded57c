"""Byzantine behaviours (§2 system model, §4 byzantine discussion).

The paper enumerates what a byzantine server ˇs can do to the block DAG
(§4): (1) equivocate — build two blocks with the same parent, splitting
its simulated state into two versions; (2) reference a block multiple
times; (3) never reference a block.  Plus the perennial classics:
silence, crashing, and emitting garbage.

A behaviour is data: a *script* of ``(from_round, Step)`` pairs, each
:class:`Step` in force from the seat's ``from_round``-th round
opportunity until the next one.  :data:`BEHAVIOURS` names the scripts a
:class:`~repro.runtime.faults.ByzantineFault` can seat, and the one
:class:`Adversary` runs whichever it is handed.

Adversaries are *computationally bounded*: they sign only with their
own key (the :class:`~repro.crypto.keys.KeyRing` enforces this shape —
an adversary holds its own identity, not others' secrets) and cannot
fabricate references to blocks that do not exist (hash preimages,
Lemma 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.crypto.keys import KeyRing
from repro.crypto.signatures import Signature
from repro.dag.block import Block
from repro.gossip.module import Gossip
from repro.net.message import BlockEnvelope, Envelope, FwdRequestEnvelope
from repro.net.transport import Transport
from repro.requests import RequestBuffer
from repro.types import Label, Request, ServerId


@dataclass(frozen=True)
class Step:
    """What a byzantine seat does while the step is in force."""

    #: The block sealed each round: the honest next block of its chain,
    #: a fork of it (one branch to each half of the peers), or nothing.
    seal: Literal["honest", "fork", "none"] = "honest"
    #: Who gets the honest block: every peer, or the first peer only.
    to: Literal["all", "first"] = "all"
    #: Whether it takes in what the network delivers.
    receive: bool = True
    #: Whether it answers FWD requests (Algorithm 1 line 12).
    answer_fwd: bool = True
    #: Invalid blocks sent to every peer each round: a forged
    #: signature, or a non-genesis block with no parent.
    invalid: tuple[Literal["bad-signature", "orphan"], ...] = ()


#: A behaviour: steps by the round opportunity they start at, from 0.
Script = tuple[tuple[int, Step], ...]

SILENT = Step(seal="none", receive=False)

#: Byzantine behaviours a fault schedule can seat, by name.
BEHAVIOURS: dict[str, Script] = {
    # Never sends anything — the 'silent server' case of §4 (3).  The
    # embedded protocol must progress without it (BFT quorums), and
    # gossip must not block on it.
    "silent": ((0, SILENT),),
    # Full gossip without interpretation for two rounds, then
    # permanently silent — a fail-stop fault.
    "crash": ((0, Step()), (2, SILENT)),
    # Forks its chain every round: two blocks with the same sequence
    # number and parent, one shown to each half of the peers (Figure 3
    # / Example 3.5).  Correct servers insert both, the interpretation
    # splits ˇs's simulated state into two versions (§4), and the
    # embedded protocol must absorb the conflicting messages.
    "equivocator": ((0, Step(seal="fork")),),
    # Well-formed but invalid blocks only; correct validators must
    # discard all of it (Definition 3.3).
    "garbage": (
        (0, Step(seal="none", receive=False, invalid=("bad-signature", "orphan"))),
    ),
    # Valid blocks shown to one peer, FWD requests never answered: the
    # others learn of the blocks from the peer's references and
    # FWD-request them *from the peer* (Algorithm 1 line 11 targets the
    # referencing block's builder) — the forwarding mechanism's showcase.
    "withholding": ((0, Step(to="first", answer_fwd=False)),),
}


class Adversary:
    """A byzantine participant running ``script``: it receives whatever
    the network delivers and acts on each round opportunity as the
    step in force says."""

    def __init__(
        self,
        server: ServerId,
        keyring: KeyRing,
        transport: Transport,
        script: Script,
    ) -> None:
        self.server = server
        self.keyring = keyring
        self.transport = transport
        self.script = script
        self.peers = [s for s in keyring.servers if s != server]
        self.rqsts = RequestBuffer()
        self.gossip = Gossip(server, keyring, transport, self.rqsts)
        #: Round opportunities taken so far.
        self.rounds = 0
        self.forks_made = 0
        self.invalid_sent = 0
        self._fork_requests: list[tuple[Label, Request]] = []

    @property
    def step(self) -> Step:
        """The step in force for the next round opportunity."""
        return next(
            step for start, step in reversed(self.script) if start <= self.rounds
        )

    def request(self, label: Label, request: Request) -> None:
        """Queue a request for the seat's own chain (the primary fork
        branch when it forks)."""
        self.rqsts.put(label, request)

    def fork_request(self, label: Label, request: Request) -> None:
        """Queue a request for the *secondary* fork branch only — the
        classic 'tell half the network one thing, half another'."""
        self._fork_requests.append((label, request))

    def on_network(self, src: ServerId, envelope: Envelope) -> None:
        """Network ingress."""
        step = self.step
        if not step.receive:
            return
        if not step.answer_fwd and isinstance(envelope, FwdRequestEnvelope):
            return
        self.gossip.on_receive(src, envelope)

    def on_round(self) -> None:
        """The seat's dissemination opportunity each round."""
        step = self.step
        if step.seal == "honest":
            self.gossip.disseminate_to(
                self.peers if step.to == "all" else self.peers[:1]
            )
        elif step.seal == "fork":
            self._fork()
        invalid = [self._invalid(shape) for shape in step.invalid]
        for peer in self.peers:
            for block in invalid:
                self.transport.send(peer, BlockEnvelope(block))
                self.invalid_sent += 1
        self.rounds += 1

    def _fork(self) -> None:
        # Branch A: the normal sealed block, continuing our chain.
        block_a = self.gossip.disseminate_to([])  # seal + insert, send to nobody
        # Branch B: same k, same preds, different payload.
        block_b = self._signed(
            Block(
                n=self.server,
                k=block_a.k,
                preds=block_a.preds,
                rs=tuple(self._fork_requests),
            )
        )
        self._fork_requests = []
        if block_b.ref != block_a.ref:
            self.gossip.dag.insert(block_b)
            self.forks_made += 1
        else:
            block_b = block_a
        half = len(self.peers) // 2
        for peer in self.peers[:half]:
            self.transport.send(peer, BlockEnvelope(block_a))
        for peer in self.peers[half:]:
            self.transport.send(peer, BlockEnvelope(block_b))

    def _invalid(self, shape: str) -> Block:
        if shape == "bad-signature":
            # Valid structure, a tag of HMAC-SHA256's length that no key
            # produced.
            return Block(
                n=self.server, k=0, preds=(), rs=(), sigma=Signature(b"\x00" * 32)
            )
        # Claims to be non-genesis but has no parent at all.
        return self._signed(
            Block(n=self.server, k=2 * self.rounds + 1, preds=(), rs=())
        )

    def _signed(self, block: Block) -> Block:
        return Block(
            n=block.n,
            k=block.k,
            preds=block.preds,
            rs=block.rs,
            sigma=self.keyring.sign(self.server, block.signing_payload()),
        )
