"""Pluggable signature schemes — the paper's ``sign`` / ``verify`` (§2).

The paper assumes ``verify(s, m, σ) = true`` iff ``sign(s, m) = σ`` and
treats the failure probability of the scheme as zero.  Under that
assumption, any unforgeable-by-construction scheme yields identical
protocol behaviour, so the scheme is pluggable:

* :class:`Ed25519Scheme` — real asymmetric signatures (pure-Python
  RFC 8032).  Milliseconds per operation; use for fidelity.
* :class:`HmacScheme` — HMAC-SHA256 with per-server secrets held by a
  :class:`~repro.crypto.keys.KeyRing`.  Microseconds per operation.
  Models unforgeability faithfully *within the simulation*: only code
  holding the ring can sign, and simulated byzantine servers are never
  handed other servers' secrets.
* :class:`NullScheme` — accepts everything; isolates signature *counts*
  from signature *cost* in benchmarks.
* :class:`CountingScheme` — decorator adding operation counters to any
  scheme; ``TestBatchSignatures`` (tier-1) checks the paper's batch
  signature claim (CLM-SIG) with it.
"""

from __future__ import annotations

import hashlib
import hmac
from abc import ABC, abstractmethod
from typing import NewType

from repro.errors import UnknownKeyError
from repro.types import ServerId

#: Opaque signature bytes (the paper's ``σ ∈ Σ``).
Signature = NewType("Signature", bytes)


class SignatureScheme(ABC):
    """Interface binding server identities to signing capability.

    Implementations must be deterministic: signing the same message for
    the same server always returns the same signature.  That matches
    the paper's treatment of ``sign`` as a function and keeps the whole
    framework replayable.
    """

    @abstractmethod
    def register(self, server: ServerId) -> None:
        """Create key material for ``server`` (idempotent)."""

    @abstractmethod
    def sign(self, server: ServerId, message: bytes) -> Signature:
        """Sign ``message`` as ``server``; raises :class:`UnknownKeyError`
        if the server was never registered."""

    @abstractmethod
    def verify(self, server: ServerId, message: bytes, signature: Signature) -> bool:
        """Check that ``signature`` is ``server``'s signature on ``message``."""

    def registered(self, server: ServerId) -> bool:
        """Whether key material exists for ``server``."""
        try:
            self.sign(server, b"")
        except UnknownKeyError:
            return False
        return True


class Ed25519Scheme(SignatureScheme):
    """Real Ed25519 signatures via :mod:`repro.crypto.ed25519`.

    Key generation is deterministic from the server identifier and an
    instance seed, so simulations are reproducible run to run.
    """

    def __init__(self, seed: bytes = b"repro-ed25519") -> None:
        self._seed = seed
        self._secrets: dict[ServerId, bytes] = {}
        self._publics: dict[ServerId, bytes] = {}

    def register(self, server: ServerId) -> None:
        from repro.crypto import ed25519

        if server in self._secrets:
            return
        secret = hashlib.sha256(self._seed + server.encode("utf-8")).digest()
        self._secrets[server] = secret
        self._publics[server] = ed25519.secret_to_public(secret)

    def public_key(self, server: ServerId) -> bytes:
        """The 32-byte public key of ``server`` (for interop checks)."""
        if server not in self._publics:
            raise UnknownKeyError(f"no key registered for {server!r}")
        return self._publics[server]

    def sign(self, server: ServerId, message: bytes) -> Signature:
        from repro.crypto import ed25519

        if server not in self._secrets:
            raise UnknownKeyError(f"no key registered for {server!r}")
        return Signature(ed25519.sign(self._secrets[server], message))

    def verify(self, server: ServerId, message: bytes, signature: Signature) -> bool:
        from repro.crypto import ed25519

        public = self._publics.get(server)
        if public is None:
            return False
        return ed25519.verify(public, message, bytes(signature))


class HmacScheme(SignatureScheme):
    """HMAC-SHA256 "signatures" with per-server secrets.

    Within a single-process simulation this gives exactly the semantics
    the paper assumes: only the holder of the secret can produce a
    verifying tag, verification is deterministic, failure probability is
    (modelled as) zero.  It is two to three orders of magnitude faster
    than pure-Python Ed25519, which matters for DAGs with 10^4+ blocks.
    """

    def __init__(self, seed: bytes = b"repro-hmac") -> None:
        self._seed = seed
        self._keys: dict[ServerId, bytes] = {}

    def register(self, server: ServerId) -> None:
        if server in self._keys:
            return
        self._keys[server] = hashlib.sha256(self._seed + server.encode("utf-8")).digest()

    def sign(self, server: ServerId, message: bytes) -> Signature:
        key = self._keys.get(server)
        if key is None:
            raise UnknownKeyError(f"no key registered for {server!r}")
        return Signature(hmac.new(key, message, hashlib.sha256).digest())

    def verify(self, server: ServerId, message: bytes, signature: Signature) -> bool:
        key = self._keys.get(server)
        if key is None:
            return False
        expected = hmac.new(key, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, bytes(signature))


class NullScheme(SignatureScheme):
    """A scheme whose signatures are empty and always verify.

    Useful in benchmarks that want to charge *zero* cost to signatures
    while still counting operations via :class:`CountingScheme`, and in
    unit tests of layers above crypto.
    """

    def __init__(self) -> None:
        self._registered: set[ServerId] = set()

    def register(self, server: ServerId) -> None:
        self._registered.add(server)

    def sign(self, server: ServerId, message: bytes) -> Signature:
        if server not in self._registered:
            raise UnknownKeyError(f"no key registered for {server!r}")
        return Signature(b"")

    def verify(self, server: ServerId, message: bytes, signature: Signature) -> bool:
        return server in self._registered


class CountingScheme(SignatureScheme):
    """Decorator counting sign/verify operations on an inner scheme.

    The counters back the CLM-SIG experiment: the paper claims the
    embedding replaces per-message signatures with one batch signature
    per block ("it suffices, that every server signs their blocks", §5).
    """

    def __init__(self, inner: SignatureScheme) -> None:
        self.inner = inner
        self.sign_count = 0
        self.verify_count = 0

    def reset(self) -> None:
        """Zero both counters."""
        self.sign_count = 0
        self.verify_count = 0

    def register(self, server: ServerId) -> None:
        self.inner.register(server)

    def sign(self, server: ServerId, message: bytes) -> Signature:
        self.sign_count += 1
        return self.inner.sign(server, message)

    def verify(self, server: ServerId, message: bytes, signature: Signature) -> bool:
        self.verify_count += 1
        return self.inner.verify(server, message, signature)
