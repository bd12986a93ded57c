"""Content hashing — the paper's ``#`` and ``ref`` (Definition A.1).

We use SHA-256 with *domain separation*: every hash is computed over a
domain tag followed by a length-prefixed sequence of byte fields.  The
length prefixes make the encoding injective (no two distinct field
sequences collide by concatenation), so collision resistance of SHA-256
carries over to collision resistance of :func:`hash_fields`.

The paper identifies blocks with their references (``B`` vs ``ref(B)``),
justified by collision resistance; we do the same, using the hex digest
as the :data:`~repro.types.BlockRef`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable, NewType

#: Hex-encoded SHA-256 digest.
Hash = NewType("Hash", str)

#: Number of bytes in a raw digest.
DIGEST_SIZE = 32


def hash_bytes(data: bytes, domain: str = "raw") -> Hash:
    """Hash a single byte string under a domain tag.

    ``domain`` separates different uses of the hash function (block
    references, message ids, transport checksums...) so a digest from
    one context can never be replayed in another.
    """
    h = _tagged(domain)
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)
    return Hash(h.hexdigest())


def digester(domain: str) -> Callable[[bytes], bytes]:
    """:func:`hash_bytes` under one ``domain`` as the raw
    :data:`DIGEST_SIZE` bytes — the name of a content-addressed object,
    where hex would double its size — with the domain tag hashed once."""
    prefix = _tagged(domain)

    def digest(data: bytes) -> bytes:
        h = prefix.copy()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
        return h.digest()

    return digest


def _tagged(domain: str) -> Any:
    """A SHA-256 state that has absorbed the length-prefixed tag."""
    h = hashlib.sha256()
    tag = domain.encode("utf-8")
    h.update(len(tag).to_bytes(4, "big"))
    h.update(tag)
    return h


def hash_fields(fields: Iterable[bytes], domain: str) -> Hash:
    """Hash an ordered sequence of byte fields injectively.

    Each field is length-prefixed, so ``[b"ab", b"c"]`` and
    ``[b"a", b"bc"]`` produce different digests.  This is the primitive
    underlying ``ref(B)`` (see :meth:`repro.dag.block.Block.ref`).
    """
    h = hashlib.sha256()
    tag = domain.encode("utf-8")
    h.update(len(tag).to_bytes(4, "big"))
    h.update(tag)
    for field in fields:
        h.update(len(field).to_bytes(8, "big"))
        h.update(field)
    return Hash(h.hexdigest())


def short(digest: Hash, length: int = 8) -> str:
    """Abbreviate a digest for logs and visualizations."""
    return digest[:length]
