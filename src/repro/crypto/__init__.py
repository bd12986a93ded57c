"""Cryptographic primitives (paper §2 and Definition A.1).

The paper assumes a secure hash function ``#`` (used as ``ref`` over
blocks) and a signature scheme ``sign``/``verify`` with negligible —
assumed zero — failure probability.  This package provides:

* :mod:`repro.crypto.hashing` — SHA-256 based content hashing with
  domain separation, used for ``ref(B)``.
* :mod:`repro.crypto.signatures` — the signature type ``σ``.
* :mod:`repro.crypto.keys` — the :class:`~repro.crypto.keys.KeyRing`
  binding server identifiers to keys, which signs and verifies.

HMAC-SHA256 is the one signature scheme: §2 assumes ideal signatures,
so every unforgeable scheme gives the same protocol behaviour, and the
keyed hash gives it fastest and deterministically.
"""

from repro.crypto.hashing import Hash, hash_bytes, hash_fields
from repro.crypto.keys import KeyRing
from repro.crypto.signatures import Signature

__all__ = [
    "Hash",
    "KeyRing",
    "Signature",
    "hash_bytes",
    "hash_fields",
]
