"""The paper's signature type ``σ ∈ Σ`` (§2).

The paper assumes ``verify(s, m, σ) = true`` iff ``sign(s, m) = σ`` and
treats the failure probability of the scheme as zero.  Under that
assumption every unforgeable scheme gives the same protocol behaviour,
so there is one: HMAC-SHA256 with per-server keys, held and applied by
:class:`~repro.crypto.keys.KeyRing`.  Only code holding the ring can
sign, and simulated byzantine servers are never handed other servers'
keys, so unforgeability holds within every run.
"""

from __future__ import annotations

from typing import NewType

#: Opaque signature bytes (the paper's ``σ ∈ Σ``).
Signature = NewType("Signature", bytes)
