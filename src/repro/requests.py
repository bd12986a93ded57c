"""The ``rqsts`` buffer shared between shim and gossip (Algorithm 3 line 2).

This lives at the package top level (rather than inside ``repro.shim``)
because both the shim (producer) and gossip (consumer) layers import
it; the paper likewise treats it as a structure *shared between*
Algorithms 1 and 3.

``put(ℓ, r)`` enqueues a labelled request; ``get()`` removes "a suitable
number" of them for stamping into the next block (§5).  FIFO order is
preserved so a user's requests appear in blocks in submission order —
not required by any theorem, but it makes executions reproducible and
logs readable.
"""

from __future__ import annotations

from collections import deque

from repro.types import Label, Request


class RequestBuffer:
    """FIFO buffer of ``(label, request)`` pairs."""

    def __init__(self) -> None:
        self._queue: deque[tuple[Label, Request]] = deque()
        self.total_put = 0
        self.total_taken = 0

    def __len__(self) -> int:
        return len(self._queue)

    def put(self, label: Label, request: Request) -> None:
        """``rqsts.put(ℓ, r)``."""
        self._queue.append((label, request))
        self.total_put += 1

    def get(self, limit: int | None = None) -> list[tuple[Label, Request]]:
        """``rqsts.get()`` — remove and return up to ``limit`` pairs
        (all of them when ``limit`` is ``None``)."""
        count = len(self._queue) if limit is None else min(limit, len(self._queue))
        taken = [self._queue.popleft() for _ in range(count)]
        self.total_taken += len(taken)
        return taken

    def peek_backlog(self) -> int:
        """Queue length without consuming (``Shim.backlog``)."""
        return len(self._queue)
