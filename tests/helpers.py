"""Shared test utilities.

The central tool is :class:`ManualDagBuilder`: it constructs a *shared*
block DAG by hand — block by block, with explicit references — without
any network in the way.  Unit tests of the interpreter (Algorithm 2)
and the figure reproductions need exactly this level of control.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.keys import KeyRing
from repro.dag.block import Block
from repro.dag.blockdag import BlockDag, Validator, Validity
from repro.types import BlockRef, Label, Request, ServerId, make_servers


class ManualDagBuilder:
    """Hand-build a valid shared block DAG.

    Tracks one chain per server (sequence numbers, parent links) and
    signs every block properly, so the produced DAG passes full
    Definition 3.3 validation.  ``fork`` builds deliberately
    equivocating blocks.
    """

    def __init__(
        self,
        n: int = 4,
        servers: Sequence[ServerId] | None = None,
    ) -> None:
        if servers is None:
            servers = make_servers(n)
        self.servers: tuple[ServerId, ...] = tuple(servers)
        self.keyring = KeyRing(self.servers)
        self.dag = BlockDag()
        self.validator = Validator(self.dag, {})
        self._next_seq: dict[ServerId, int] = {s: 0 for s in self.servers}
        self._tip: dict[ServerId, Block] = {}

    def block(
        self,
        server: ServerId,
        refs: Sequence[Block | BlockRef] = (),
        rs: Sequence[tuple[Label, Request]] = (),
        insert: bool = True,
    ) -> Block:
        """Append a block to ``server``'s chain.

        ``refs`` are additional predecessors (other servers' blocks);
        the parent link is added automatically for non-genesis blocks.
        """
        preds: list[BlockRef] = []
        parent = self._tip.get(server)
        if parent is not None:
            preds.append(parent.ref)
        for ref in refs:
            resolved = ref.ref if isinstance(ref, Block) else ref
            if resolved not in preds:
                preds.append(resolved)
        unsigned = Block(
            n=server,
            k=self._next_seq[server],
            preds=tuple(preds),
            rs=tuple(rs),
        )
        block = Block(
            n=unsigned.n,
            k=unsigned.k,
            preds=unsigned.preds,
            rs=unsigned.rs,
            sigma=self.keyring.sign(server, unsigned.signing_payload()),
        )
        self._next_seq[server] += 1
        self._tip[server] = block
        if insert:
            self._insert(block)
        return block

    def fork(
        self,
        server: ServerId,
        refs: Sequence[Block | BlockRef] = (),
        rs: Sequence[tuple[Label, Request]] = (),
        insert: bool = True,
    ) -> Block:
        """Build an *equivocating* sibling of ``server``'s current tip:
        same sequence number and parent, different content."""
        tip = self._tip.get(server)
        if tip is None:
            raise ValueError(f"no block to fork for {server!r}")
        preds: list[BlockRef] = list(tip.preds)
        for ref in refs:
            resolved = ref.ref if isinstance(ref, Block) else ref
            if resolved not in preds:
                preds.append(resolved)
        unsigned = Block(n=server, k=tip.k, preds=tuple(preds), rs=tuple(rs))
        block = Block(
            n=unsigned.n,
            k=unsigned.k,
            preds=unsigned.preds,
            rs=unsigned.rs,
            sigma=self.keyring.sign(server, unsigned.signing_payload()),
        )
        if block.ref == tip.ref:
            raise ValueError("fork is identical to the original block")
        if insert:
            self._insert(block)
        return block

    def _insert(self, block: Block) -> None:
        verdict = self.validator.validity(block)
        assert verdict is Validity.VALID, (verdict, block)
        self.dag.insert(block)

    def round_all(
        self,
        rs_for: dict[ServerId, list[tuple[Label, Request]]] | None = None,
    ) -> list[Block]:
        """One 'everyone references everything so far' layer: each server
        builds a block referencing every other server's current tip —
        the fully-connected communication layer of the paper's figures."""
        rs_for = rs_for or {}
        tips = {s: b for s, b in self._tip.items()}
        new_blocks = []
        for server in self.servers:
            refs = [b for s, b in tips.items() if s != server]
            new_blocks.append(
                self.block(server, refs=refs, rs=rs_for.get(server, []))
            )
        return new_blocks


def fresh_interpreter(builder: ManualDagBuilder, protocol, **kwargs):
    """An interpreter over a manually built DAG."""
    from repro.interpret.interpreter import Interpreter

    return Interpreter(builder.dag, protocol, builder.servers, **kwargs)


def flip_before_read_back(monkeypatch):
    """From now on the disk garbles every checkpoint append between the
    write and the read-back: one byte of what was just appended to the
    object log is flipped."""
    from repro.storage.checkpoint import CheckpointManager

    real = CheckpointManager._reads_back

    def garbled(path, written, offset=0):
        data = bytearray(path.read_bytes())
        data[offset + (len(data) - offset) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return real(path, written, offset)

    monkeypatch.setattr(CheckpointManager, "_reads_back", staticmethod(garbled))


def scan_indications(shim, label):
    """``Shim.indications_for`` as it was before the per-label index: a
    scan of the whole delivery history."""
    return [i for (l, i) in shim.indications if l == label]


def reference_status(node):
    """What ``LiveNode.status()`` must publish, recomputed from scratch
    the way it was before the node kept running totals: delivery counts
    and completion by scanning ``shim.indications`` once per expected
    label, the fingerprint by a fresh fold over every ref in the DAG."""
    import os

    from repro.runtime.live.node import NodeStatus

    shim, transport, config = node.shim, node.transport, node.config
    delivered = {
        label: len(scan_indications(shim, label)) for label, _ in config.expected
    }
    tips = [shim.dag.tip(server) for server in node.servers]
    complete = all(
        tip is not None and tip.k >= config.max_ticks - 1 for tip in tips
    ) and all(delivered[label] >= minimum for label, minimum in config.expected)
    fold = sum(int(ref[:16], 16) for ref in shim.dag.refs) % 2**64
    return NodeStatus(
        server=str(node.server),
        pid=os.getpid(),
        tick=int(shim.gossip.builder.next_seq),
        blocks=len(shim.dag),
        fingerprint=f"{fold:016x}",
        delivered=delivered,
        complete=complete,
        recovered=shim.recovery is not None,
        gate_timeouts=node.metrics.counter("node.gate-timeouts").value,
        wire_messages=transport.metrics.messages,
        wire_bytes=transport.metrics.bytes,
        metrics_seq=node._metrics_seq,
    )


def frozen(value):
    """``value`` as a checkpoint writes state: its frozen form, and the
    loader of the objects it refers to (``thaw(*frozen(v)) == v``)."""
    from repro.dag import codec
    from repro.storage.state_codec import ObjectWriter, object_value

    writer = ObjectWriter()
    out = bytearray()
    writer._write(value, out)
    return codec.decode(bytes(out)), lambda name: object_value(writer.built[name])


def stored(checkpoint):
    """A checkpoint built by hand, made ready to write as a capture
    makes one: a row object per state entry and a chain per history
    section."""
    from repro.storage.checkpoint import _chains, _Objects, _row
    from repro.storage.state_codec import ObjectWriter

    writer = ObjectWriter()
    checkpoint.rows = {
        ref: _row(writer, ref, entry)
        for ref, entry in checkpoint.states.items()
    }
    checkpoint.chains = _chains(writer, checkpoint)
    checkpoint.objects = _Objects(writer.built, writer.links)
    return checkpoint


def stored_instance(instance):
    """A process instance as a checkpoint stores it: its decoded object
    and the loader of the objects it refers to."""
    from repro.storage.state_codec import ObjectWriter, object_value

    writer = ObjectWriter()
    name = writer.instance(instance)

    def load(wanted):
        return object_value(writer.built[wanted])

    return load(name), load
