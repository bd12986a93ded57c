"""Wire envelopes — the block DAG's two network message types.

The paper stresses that gossip has "one core message type, namely a
block" (§3) plus the FWD request of Algorithm 1 lines 10–13.  These
envelopes are what the simulated network carries; the higher-level
protocol ``P``'s messages never appear on the wire — that is the whole
point of the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dag.block import Block
from repro.types import BlockRef


@dataclass(frozen=True)
class Envelope:
    """Base class of wire messages."""

    def wire_size(self) -> int:
        """Approximate serialized size in bytes, for the metrics layer."""
        raise NotImplementedError


@dataclass(frozen=True)
class BlockEnvelope(Envelope):
    """A full block in flight (Algorithm 1 lines 13 and 17)."""

    block: Block

    def wire_size(self) -> int:
        return self.block.wire_size()


@dataclass(frozen=True)
class FwdRequestEnvelope(Envelope):
    """``FWD ref(B)`` — request to forward a missing predecessor
    (Algorithm 1 line 11)."""

    ref: BlockRef

    def __post_init__(self) -> None:
        if not isinstance(self.ref, str):
            raise TypeError(f"FWD ref must be a str, got {self.ref!r}")

    def wire_size(self) -> int:
        return 32  # one hash reference
