"""Unit tests for the KeyRing — the fixed server set of the system model
and the one signature scheme (the paper's §2 ``sign``/``verify``)."""

import pytest

from repro.crypto.keys import KeyRing
from repro.errors import UnknownKeyError
from repro.types import ServerId, make_servers

S1 = ServerId("s1")
S2 = ServerId("s2")
GHOST = ServerId("ghost")


@pytest.fixture
def ring():
    return KeyRing([S1, S2])


class TestKeyRing:
    def test_registers_all_servers(self):
        servers = make_servers(4)
        ring = KeyRing(servers)
        for server in servers:
            signature = ring.sign(server, b"m")
            assert ring.verify(server, b"m", signature)

    def test_server_set_is_fixed_and_ordered(self):
        servers = make_servers(3)
        ring = KeyRing(servers)
        assert list(ring.servers) == list(servers)
        assert len(ring) == 3

    def test_contains(self):
        ring = KeyRing(make_servers(2))
        assert ServerId("s1") in ring
        assert ServerId("s9") not in ring

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            KeyRing([ServerId("a"), ServerId("a")])


class TestSignatureContract:
    """The paper's §2 assumptions: a signature verifies exactly when its
    signer made it."""

    def test_sign_verify_roundtrip(self, ring):
        signature = ring.sign(S1, b"message")
        assert ring.verify(S1, b"message", signature)

    def test_signing_is_deterministic(self, ring):
        assert ring.sign(S1, b"m") == ring.sign(S1, b"m")
        assert ring.sign(S1, b"m") == KeyRing([S1, S2]).sign(S1, b"m")

    def test_unknown_signer_rejected(self, ring):
        with pytest.raises(UnknownKeyError):
            ring.sign(GHOST, b"m")

    def test_verify_unknown_server_is_false(self, ring):
        signature = ring.sign(S1, b"m")
        assert not ring.verify(GHOST, b"m", signature)

    def test_cross_server_signature_rejected(self, ring):
        signature = ring.sign(S1, b"m")
        assert not ring.verify(S2, b"m", signature)

    def test_wrong_message_rejected(self, ring):
        signature = ring.sign(S1, b"m")
        assert not ring.verify(S1, b"m2", signature)

    def test_garbage_signature_rejected(self, ring):
        assert not ring.verify(S1, b"m", b"\x00" * 64)
