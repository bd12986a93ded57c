"""Unit tests for Block (Definition 3.1), references and the builder."""

import pytest

from repro.crypto.keys import KeyRing
from repro.dag import block as block_module
from repro.dag import codec
from repro.dag.block import Block, BlockBuilder, genesis_block
from repro.protocols.brb import Broadcast
from repro.types import Label, ServerId, make_servers

S1 = ServerId("s1")
S2 = ServerId("s2")


class TestBlockDefinition31:
    def test_genesis_block(self):
        block = genesis_block(S1)
        assert block.k == 0
        assert block.is_genesis
        assert block.preds == ()

    def test_negative_sequence_rejected(self):
        with pytest.raises(ValueError):
            Block(n=S1, k=-1, preds=(), rs=())

    def test_ref_is_content_hash(self):
        a = genesis_block(S1)
        b = genesis_block(S1)
        assert a.ref == b.ref

    def test_ref_depends_on_all_content_fields(self):
        base = Block(n=S1, k=1, preds=("p",), rs=())
        assert base.ref != Block(n=S2, k=1, preds=("p",), rs=()).ref
        assert base.ref != Block(n=S1, k=2, preds=("p",), rs=()).ref
        assert base.ref != Block(n=S1, k=1, preds=("q",), rs=()).ref
        assert (
            base.ref
            != Block(n=S1, k=1, preds=("p",), rs=((Label("l"), Broadcast(1)),)).ref
        )

    def test_ref_ignores_signature(self):
        # Definition 3.1: ref is computed from n, k, preds, rs — not σ —
        # so sign(B.n, ref(B)) is well defined.
        unsigned = Block(n=S1, k=0, preds=(), rs=())
        signed = Block(n=S1, k=0, preds=(), rs=(), sigma=b"sig")
        assert unsigned.ref == signed.ref

    def test_equality_by_ref(self):
        unsigned = Block(n=S1, k=0, preds=(), rs=())
        signed = Block(n=S1, k=0, preds=(), rs=(), sigma=b"sig")
        assert unsigned == signed
        assert hash(unsigned) == hash(signed)

    def test_preds_order_affects_ref(self):
        # preds is a *list* in the paper; order is part of content.
        a = Block(n=S1, k=1, preds=("p", "q"), rs=())
        b = Block(n=S1, k=1, preds=("q", "p"), rs=())
        assert a.ref != b.ref

    def test_wire_size_grows_with_preds_and_requests(self):
        small = genesis_block(S1)
        more_preds = Block(n=S1, k=1, preds=("p" * 8, "q" * 8), rs=())
        with_requests = genesis_block(S1, [(Label("l"), Broadcast(42))])
        assert more_preds.wire_size() > small.wire_size()
        assert with_requests.wire_size() > small.wire_size()

    @pytest.mark.parametrize(
        "block",
        [
            genesis_block(S1),
            Block(n=S1, k=1, preds=("p" * 8, "q" * 8), rs=()),
            genesis_block(S1, [(Label("l"), Broadcast(42))]),
            Block(
                n=S2, k=3, preds=("p" * 8,),
                rs=((Label("l"), Broadcast(1)), (Label("m"), Broadcast(2))),
                hz=((S1, 2), (S2, 1)),
            ),
        ],
        ids=["bare", "preds", "rs", "rs+hz"],
    )
    def test_wire_size_is_the_formula_computed_once(self, block, monkeypatch):
        expected = (
            len(codec.encode(str(block.n)))
            + len(codec.encode(block.k))
            + 32 * len(block.preds)
            + len(codec.encode(list(block.rs)))
            + len(codec.encode([(str(s), k) for s, k in block.hz]))
            + 64
        )
        assert block.wire_size() == expected
        calls = []
        real = codec.encode
        monkeypatch.setattr(
            codec, "encode", lambda value: calls.append(value) or real(value)
        )
        assert block.wire_size() == expected
        assert calls == []

    def test_repr_is_compact(self):
        assert "k=0" in repr(genesis_block(S1))


class TestLemma32NoCycles:
    def test_mutual_reference_impossible(self):
        # Lemma 3.2: B1 ∈ B2.preds ⇒ B2 ∉ B1.preds.  Constructively: to
        # name B2 inside B1.preds you need ref(B2), which depends on
        # B2.preds ∋ ref(B1), which depends on B1.preds... a fixpoint a
        # computationally bounded adversary cannot find (preimage
        # resistance).  We verify the refs genuinely chain.
        b1 = Block(n=S1, k=0, preds=(), rs=())
        b2 = Block(n=S2, k=0, preds=(b1.ref,), rs=())
        assert b1.ref in b2.preds
        # Building "b1 referencing b2" yields a *different* block.
        b1_cyclic = Block(n=S1, k=0, preds=(b2.ref,), rs=())
        assert b1_cyclic.ref != b1.ref
        # And b2 references the original b1, not the cyclic variant.
        assert b1_cyclic.ref not in b2.preds


class TestBlockBuilder:
    @pytest.fixture
    def ring(self):
        return KeyRing(make_servers(4))

    def _sign_fn(self, ring, server):
        return lambda payload: ring.sign(server, payload)

    def test_first_block_is_genesis(self, ring):
        builder = BlockBuilder(S1)
        block = builder.seal([], self._sign_fn(ring, S1))
        assert block.is_genesis
        assert block.preds == ()

    def test_chain_via_parent(self, ring):
        builder = BlockBuilder(S1)
        first = builder.seal([], self._sign_fn(ring, S1))
        second = builder.seal([], self._sign_fn(ring, S1))
        assert second.k == 1
        assert second.preds[0] == first.ref

    def test_requests_stamped_into_rs(self, ring):
        builder = BlockBuilder(S1)
        requests = [(Label("l1"), Broadcast(42))]
        block = builder.seal(requests, self._sign_fn(ring, S1))
        assert block.rs == ((Label("l1"), Broadcast(42)),)

    def test_rs_cleared_after_seal(self, ring):
        builder = BlockBuilder(S1)
        builder.seal([(Label("l1"), Broadcast(1))], self._sign_fn(ring, S1))
        block = builder.seal([], self._sign_fn(ring, S1))
        assert block.rs == ()

    def test_add_pred_dedupes(self, ring):
        # Lemma A.6 (builder half): at most one reference per block.
        builder = BlockBuilder(S1)
        other = genesis_block(S2)
        assert builder.add_pred(other.ref)
        assert not builder.add_pred(other.ref)
        block = builder.seal([], self._sign_fn(ring, S1))
        assert block.preds.count(other.ref) == 1

    def test_pred_order_is_canonical_at_seal(self, ring):
        # preds order is part of ref(B), and arrival order differs
        # between transports (the simulator delivers deterministically,
        # sockets don't) — so seal() orders canonically: everything
        # sorted at k=0, parent first then the rest sorted afterwards.
        builder = BlockBuilder(S1)
        builder.add_pred("ref-b")
        builder.add_pred("ref-a")
        first = builder.seal([], self._sign_fn(ring, S1))
        assert first.preds == ("ref-a", "ref-b")
        builder.add_pred("ref-z")
        builder.add_pred("ref-c")
        second = builder.seal([], self._sign_fn(ring, S1))
        assert second.preds == (first.ref, "ref-c", "ref-z")

    def test_sealed_block_signature_verifies(self, ring):
        builder = BlockBuilder(S1)
        block = builder.seal([], self._sign_fn(ring, S1))
        assert ring.verify(S1, block.signing_payload(), block.sigma)

    def test_sealed_block_takes_the_unsigned_ref_without_rehashing(
        self, ring, monkeypatch
    ):
        hashed = []
        real = block_module.hash_fields
        monkeypatch.setattr(
            block_module,
            "hash_fields",
            lambda fields, domain: hashed.append(domain) or real(fields, domain=domain),
        )
        builder = BlockBuilder(S1)
        builder.set_claim(((S2, 4),))
        requests = [(Label("l1"), Broadcast(42))]
        sealed = builder.seal(requests, self._sign_fn(ring, S1))
        assert len(hashed) == 1
        unsigned = Block(
            n=S1, k=0, preds=(), rs=tuple(requests), hz=((S2, 4),)
        )
        assert sealed.ref == unsigned.ref
        assert len(hashed) == 2  # the comparison's own hash, none for ``sealed``
        assert builder.pending_preds == (sealed.ref,)
        assert ring.verify(S1, sealed.signing_payload(), sealed.sigma)

    def test_next_seq_tracks(self, ring):
        builder = BlockBuilder(S1)
        assert builder.next_seq == 0
        builder.seal([], self._sign_fn(ring, S1))
        assert builder.next_seq == 1


class TestContinueAfter:
    """A builder restarted from disk resumes its own chain (§7)."""

    @pytest.fixture
    def ring(self):
        return KeyRing(make_servers(4))

    def test_no_history_returns_false(self):
        builder = BlockBuilder(S1)
        assert not builder.continue_after(None)
        assert builder.next_seq == 0

    def test_already_past_the_tip_returns_false(self, ring):
        builder = BlockBuilder(S1)
        tip = builder.seal([], lambda payload: ring.sign(S1, payload))
        assert not builder.continue_after(tip)
        assert builder.next_seq == 1
        assert builder.pending_preds == (tip.ref,)

    def test_adopted_tip_is_the_next_parent(self, ring):
        old = BlockBuilder(S1)
        sign = lambda payload: ring.sign(S1, payload)  # noqa: E731
        for _ in range(3):
            tip = old.seal([], sign)
        restarted = BlockBuilder(S1)
        assert restarted.continue_after(tip)
        assert restarted.next_seq == tip.k + 1
        assert restarted.pending_preds[0] == tip.ref
        block = restarted.seal([], sign)
        assert (block.k, block.preds) == (tip.k + 1, (tip.ref,))
