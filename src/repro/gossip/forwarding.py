"""FWD request bookkeeping (Algorithm 1 lines 10–13).

When a buffered block references a predecessor the server has never
seen, the server asks the block's *builder* for it — nobody else needs
to be bothered, because a valid block certifies that its builder holds
all predecessors (§3: "s has received the full content … and
persistently stores").

The paper notes an implementation must pace these requests ("a correct
server waits a reasonable amount of time before (re-)issuing a forward
request", §3).  :class:`ForwardingState` implements that: per missing
reference it remembers whom to ask and when the next retry is due, and
exposes the refs whose retry timers have expired.  Retries never give
up: reliable delivery (Lemma 4.3) needs only patience against a correct
builder, and a byzantine builder's blocks can stay pending harmlessly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import BlockRef, ServerId


@dataclass
class _Want:
    target: ServerId
    next_retry: float


class ForwardingState:
    """Tracks outstanding FWD requests with retry pacing.

    Parameters
    ----------
    retry_interval:
        Virtual-time gap between (re-)requests for the same reference —
        the paper's Δ_B', informed by the round-trip estimate.
    """

    def __init__(self, retry_interval: float = 3.0) -> None:
        self.retry_interval = retry_interval
        self._wants: dict[BlockRef, _Want] = {}

    def __contains__(self, ref: object) -> bool:
        return ref in self._wants

    def __len__(self) -> int:
        return len(self._wants)

    def want(self, ref: BlockRef, target: ServerId, now: float) -> bool:
        """Register that ``ref`` is missing and ``target`` should have it.

        Returns ``True`` when a FWD request should be sent *now* (first
        sighting, or the retry timer expired)."""
        entry = self._wants.get(ref)
        if entry is None:
            self._wants[ref] = _Want(
                target=target, next_retry=now + self.retry_interval
            )
            return True
        if now >= entry.next_retry:
            entry.next_retry = now + self.retry_interval
            entry.target = target
            return True
        return False

    def satisfied(self, ref: BlockRef) -> None:
        """The reference arrived; stop tracking it."""
        self._wants.pop(ref, None)

    def due(self, now: float) -> list[tuple[BlockRef, ServerId]]:
        """References whose retry timer has expired, with their targets.

        The caller re-issues FWDs through :meth:`want`, which advances
        the timers."""
        return [
            (ref, entry.target)
            for ref, entry in self._wants.items()
            if now >= entry.next_retry
        ]

    def outstanding(self) -> set[BlockRef]:
        """All references currently being chased."""
        return set(self._wants)
