"""Blocks — Definition 3.1.

A block ``B`` carries:

* ``n``     — identifier of the server that built it,
* ``k``     — sequence number in ``N0``,
* ``preds`` — an ordered list of references to predecessor blocks,
* ``rs``    — a list of ``(label, request)`` pairs injected by the user,
* ``σ``     — a signature over ``ref(B)``.

``ref(B)`` is a hash over ``(n, k, preds, rs)`` — crucially *not* over
``σ`` so that ``sign(B.n, ref(B))`` is well defined.  Collision
resistance justifies identifying blocks with their references; the rest
of the library passes :data:`~repro.types.BlockRef` around and fetches
full blocks from a store when needed.

The *parent* relation: ``B`` is the parent of ``B'`` when both were
built by the same server, ``B'.k = B.k + 1``, and ``ref(B) ∈ B'.preds``.
Validity (Definition 3.3) demands exactly one parent for non-genesis
blocks, forcing a linear history per correct server; equivocators can
still fork by signing two blocks with the same ``k`` (Example 3.5 /
Figure 3), which the interpretation tolerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.crypto.hashing import hash_fields
from repro.crypto.signatures import Signature
from repro.dag import codec
from repro.types import BlockRef, Label, Request, SeqNum, ServerId

#: Domain tag for block reference hashes.  v2: ``ref(B)`` additionally
#: covers the piggybacked horizon claim ``hz``, so claims are
#: authenticated by the block signature (``sign`` covers ``ref(B)``) and
#: a relaying byzantine server cannot rewrite another server's claim.
_REF_DOMAIN = "blockdag/ref/v2"

#: A horizon claim: the builder's durable checkpoint frontier at seal
#: time, as ``(server, seq)`` pairs — "every block of ``server`` with
#: sequence number ≤ ``seq`` in my DAG past is covered by my latest
#: durable checkpoint".  Empty when the builder runs without storage.
HorizonClaim = tuple[tuple[ServerId, SeqNum], ...]


def _pairs(value: object, second: type) -> bool:
    """Whether ``value`` is a tuple of ``(str, second)`` pairs."""
    return isinstance(value, tuple) and all(
        isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], second)
        for p in value
    )


@dataclass(frozen=True)
class Block:
    """An immutable block (Definition 3.1, plus the GC extension).

    Equality and hashing are by ``ref`` — i.e. by content excluding the
    signature — matching the paper's identification of ``B`` with
    ``ref(B)``.

    ``hz`` is the coordinated-GC piggyback (see :mod:`repro.horizon`):
    the builder's durable checkpoint frontier, stamped into every block
    it seals.  Embedding the claim in the block keeps horizon agreement
    a pure function of the DAG — no extra protocol, the paper's central
    move applied to garbage collection.
    """

    n: ServerId
    k: SeqNum
    preds: tuple[BlockRef, ...]
    rs: tuple[tuple[Label, Request], ...]
    sigma: Signature = field(default=Signature(b""), compare=False)
    hz: HorizonClaim = ()

    def __post_init__(self) -> None:
        # The one shape check for a block off the wire, out of a WAL
        # record or a checkpoint skeleton: it fails inside ``codec.decode``.
        if not (
            isinstance(self.n, str) and isinstance(self.k, int) and isinstance(self.sigma, bytes)
            and isinstance(self.preds, tuple) and all(isinstance(p, str) for p in self.preds)
            and _pairs(self.rs, object) and _pairs(self.hz, int)
        ):
            raise TypeError(f"malformed block fields: {self.n!r}, {self.k!r}")
        if self.k < 0:
            raise ValueError(f"sequence number must be in N0, got {self.k}")

    @classmethod
    def stub(
        cls, ref: BlockRef, n: ServerId, k: SeqNum, preds: tuple[BlockRef, ...],
        sigma: bytes, hz: HorizonClaim,
    ) -> "Block":
        """The payload-pruned stub of block ``ref``: every field but
        ``rs``, which is gone.  ``ref(B)`` covers the dropped ``rs``, so
        the original is pinned — the stub keeps its identity, and its
        signature (over ``ref(B)``) stays verifiable."""
        stub = cls(n=n, k=k, preds=preds, rs=(), sigma=Signature(sigma), hz=hz)
        stub.__dict__["ref"] = ref
        return stub

    @cached_property
    def ref(self) -> BlockRef:
        """``ref(B)`` — content hash over ``(n, k, preds, rs, hz)``, not ``σ``."""
        return BlockRef(
            hash_fields(
                [
                    codec.encode(str(self.n)),
                    codec.encode(self.k),
                    codec.encode([str(p) for p in self.preds]),
                    codec.encode(list(self.rs)),
                    codec.encode([(str(s), k) for s, k in self.hz]),
                ],
                domain=_REF_DOMAIN,
            )
        )

    @property
    def is_genesis(self) -> bool:
        """Whether ``k = 0``; genesis blocks cannot have a parent."""
        return self.k == 0

    def signing_payload(self) -> bytes:
        """The bytes a server signs: the block reference."""
        return self.ref.encode("ascii")

    @cached_property
    def _wire_size(self) -> int:
        payload = len(codec.encode(list(self.rs)))
        header = len(codec.encode(str(self.n))) + len(codec.encode(self.k))
        claim = len(codec.encode([(str(s), k) for s, k in self.hz]))
        return header + 32 * len(self.preds) + payload + claim + 64

    def wire_size(self) -> int:
        """Approximate serialized size in bytes (for the metrics layer),
        computed once per block: the transports ask per destination.

        Reference hashes count 32 bytes each, the signature 64, plus the
        canonical encoding of the payload fields.
        """
        return self._wire_size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self.ref == other.ref

    def __hash__(self) -> int:
        return hash(self.ref)

    def __repr__(self) -> str:
        return (
            f"Block(n={self.n!r}, k={self.k}, |preds|={len(self.preds)}, "
            f"|rs|={len(self.rs)}, ref={self.ref[:8]}…)"
        )


def genesis_block(
    server: ServerId,
    requests: Sequence[tuple[Label, Request]] = (),
) -> Block:
    """An unsigned genesis block (``k = 0``, no predecessors) for ``server``."""
    return Block(n=server, k=0, preds=(), rs=tuple(requests))


def parent_of(block: Block, preds: Sequence[Block]) -> Block | None:
    """The unique parent (same builder, sequence ``k - 1``) among
    ``preds`` — the resolved, deduplicated predecessor blocks in their
    reference order.

    THE parent-selection rule: Algorithm 2's copy-on-write (line 4) and
    the checkpoint delta encoding both key on it, and the two must pick
    the *same* block (a checkpoint delta applied over a different fork
    sibling's ``PIs`` would silently corrupt rehydrated state) — hence
    one shared definition instead of two lookalikes.
    """
    if block.is_genesis:
        return None
    for pred in preds:
        if pred.n == block.n and pred.k == block.k - 1:
            return pred
    return None


class BlockBuilder:
    """Mutable accumulator for the block a server is currently building.

    Mirrors the ``B`` variable of Algorithm 1: gossip appends references
    to newly validated blocks (line 8) and, on ``disseminate()``, stamps
    in the pending requests, signs, and rolls over to the next sequence
    number with the freshly sealed block as parent (lines 15–18).
    """

    def __init__(self, server: ServerId) -> None:
        self.server = server
        self._k: SeqNum = 0
        self._preds: list[BlockRef] = []
        self._seen_preds: set[BlockRef] = set()
        self._claim: HorizonClaim = ()

    @property
    def next_seq(self) -> SeqNum:
        """Sequence number the next sealed block will carry."""
        return self._k

    @property
    def pending_preds(self) -> tuple[BlockRef, ...]:
        """References accumulated for the in-progress block."""
        return tuple(self._preds)

    @property
    def claim(self) -> HorizonClaim:
        """The horizon claim the next sealed block will carry."""
        return self._claim

    def set_claim(self, claim: HorizonClaim) -> None:
        """Update the durable-frontier claim stamped into sealed blocks
        (the shim calls this after every checkpoint write)."""
        self._claim = tuple(claim)

    def add_pred(self, ref: BlockRef) -> bool:
        """Append a predecessor reference (Algorithm 1 line 8).

        Returns ``False`` if the reference is already pending, keeping
        each reference at most once per block (cf. Lemma A.6 — a correct
        server references any given block in at most one of its own
        blocks; gossip guarantees the cross-block half by only feeding
        each block through validation once).
        """
        if ref in self._seen_preds:
            return False
        self._preds.append(ref)
        self._seen_preds.add(ref)
        return True

    def continue_after(self, tip: Block | None) -> bool:
        """Continue this server's chain after ``tip``, its highest block
        recovered from disk: the next sealed block gets ``tip.k + 1``
        and ``tip`` as its parent, so sequence numbers stay consecutive
        across a restart (§7).

        Returns ``False``, changing nothing, when there is no tip or the
        builder is already past it.
        """
        if tip is None or self._k > tip.k:
            return False
        self._k = tip.k + 1
        self._preds = [tip.ref]
        self._seen_preds = {tip.ref}
        return True

    def _canonical_preds(self) -> tuple[BlockRef, ...]:
        """The accumulated references in canonical seal order.

        ``ref(B)`` hashes ``preds`` *in order*, so two servers (or two
        runs) sealing the same logical block must list the same
        references in the same sequence.  Foreign references accumulate
        in validation order, which is deterministic on the simulator but
        arrival-order-dependent on a real network — so seal normalizes:
        the parent (the builder's own previous block, always slot 0 when
        present) stays first, everything else is sorted by reference.
        """
        if self._k == 0:
            return tuple(sorted(self._preds))
        return (self._preds[0], *sorted(self._preds[1:]))

    def seal(
        self,
        requests: Sequence[tuple[Label, Request]],
        sign: "callable[[bytes], Signature]",
    ) -> Block:
        """Seal the current block (Algorithm 1 lines 15–18).

        Stamps ``requests`` into ``rs``, signs the reference, and resets
        the builder so the *next* block has ``k + 1`` and the sealed
        block as its single parent (first predecessor).
        """
        unsigned = Block(
            n=self.server,
            k=self._k,
            preds=self._canonical_preds(),
            rs=tuple(requests),
            hz=self._claim,
        )
        sealed = Block(
            n=unsigned.n,
            k=unsigned.k,
            preds=unsigned.preds,
            rs=unsigned.rs,
            sigma=sign(unsigned.signing_payload()),
            hz=unsigned.hz,
        )
        # ``ref(B)`` does not cover ``σ``: the hash just signed is the
        # sealed block's too.
        sealed.__dict__["ref"] = unsigned.ref
        self._k += 1
        self._preds = [sealed.ref]
        self._seen_preds = {sealed.ref}
        return sealed
