"""Key management: the server set ``Srvrs`` and its ``sign``/``verify``.

The system model (§2) fixes a finite, globally-known set of servers.
:class:`KeyRing` captures that: it derives every server's key up front
and then answers sign/verify requests.  It is the single place where
"who can sign as whom" is decided, which makes byzantine simulations
explicit — an adversary only ever signs as the identities the test
hands it.

HMAC-SHA256 is the one signature scheme.  §2 assumes ideal signatures
(a signature verifies exactly when its signer made it), so any
unforgeable scheme gives the same runs; HMAC gives them in
microseconds and deterministically, so every run replays.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable, Sequence

from repro.crypto.signatures import Signature
from repro.errors import UnknownKeyError
from repro.types import ServerId


class KeyRing:
    """All key material for a fixed server set.

    Parameters
    ----------
    servers:
        The global server set ``Srvrs``.  Fixed at construction, per the
        system model.
    """

    def __init__(self, servers: Iterable[ServerId]) -> None:
        self._servers: tuple[ServerId, ...] = tuple(servers)
        if len(set(self._servers)) != len(self._servers):
            raise ValueError("duplicate server identifiers in key ring")
        self._keys: dict[ServerId, bytes] = {
            server: hashlib.sha256(b"repro-hmac" + server.encode("utf-8")).digest()
            for server in self._servers
        }

    @property
    def servers(self) -> Sequence[ServerId]:
        """The fixed, ordered server set."""
        return self._servers

    def __contains__(self, server: object) -> bool:
        return server in self._servers

    def __len__(self) -> int:
        return len(self._servers)

    def sign(self, server: ServerId, message: bytes) -> Signature:
        """Sign ``message`` with ``server``'s key; raises
        :class:`UnknownKeyError` for a server outside the ring."""
        key = self._keys.get(server)
        if key is None:
            raise UnknownKeyError(f"no key registered for {server!r}")
        return Signature(hmac.new(key, message, hashlib.sha256).digest())

    def verify(self, server: ServerId, message: bytes, signature: Signature) -> bool:
        """Whether ``signature`` is ``server``'s signature on ``message``
        (``False`` for a server outside the ring)."""
        key = self._keys.get(server)
        if key is None:
            return False
        expected = hmac.new(key, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, bytes(signature))
