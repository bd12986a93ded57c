"""The agreed GC horizon — quorum agreement over piggybacked claims.

A :class:`HorizonTracker` watches one server's DAG and folds every
stamped claim (:mod:`repro.horizon.claims`) into a per-claimer frontier
vector.  The **agreed horizon** is then, per chain, the highest
sequence number that ``n - f`` distinct claimers cover:

    ``H[s] = (n - f)-th largest of {claim_c[s] : c ∈ claimers}``

with missing values counting as -1.  Because the fold is an
element-wise max and the quantile is over the resulting vectors, ``H``
is a pure, order-independent, monotone function of the DAG's contents —
two correct servers holding the same DAG compute the *same* horizon
(:func:`repro.invariants.horizon_differences` checks exactly this), and
as their DAGs converge so do their horizons.

Why ``n - f`` makes pruning byzantine-safe where Lemma A.6 is not: a
correct claimer's claim covering position ``(s, k)`` implies it holds
*some* block at every position up to ``(s, k)`` — and for an honest
builder ``s`` whose chain cannot fork, that is *the* block.  Any block
an observer admits later carries, through its claim-bearing
predecessors, the DAG pasts of its claimers — so by the time ``n - f``
claims covering ``(s, k)`` are in your DAG, every honest block at or
below ``(s, k)`` is too.  Only byzantine fork siblings can surface
below the agreed horizon, and those are condemned with cause (gossip's
validity extension) instead of stalling their descendants forever.

During a partition neither side can assemble ``n - f`` fresh claims,
so the horizon *freezes* — pruning halts instead of racing ahead of
delayed blocks, which is exactly the coordination the seed pruner
lacked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dag.block import Block
from repro.horizon.claims import merge_claim
from repro.obs.trace import NULL_RECORDER
from repro.types import SeqNum, ServerId, max_faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dag.blockdag import BlockDag


class HorizonTracker:
    """One server's view of the agreed GC horizon.

    Parameters
    ----------
    servers:
        The global server set ``Srvrs`` (fixes ``n`` and ``f``).
    dag:
        When given, the tracker subscribes to the DAG's insert listener
        and observes every claim automatically — recovery replay and
        live gossip alike.  Manual use (tests) can call
        :meth:`observe` directly.
    """

    def __init__(
        self,
        servers: "list[ServerId] | tuple[ServerId, ...]",
        dag: "BlockDag | None" = None,
        tracer: object | None = None,
    ) -> None:
        self.servers: tuple[ServerId, ...] = tuple(servers)
        #: Flight recorder; every agreed-horizon advance emits one event.
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        #: Claims needed before a frontier becomes agreed: ``n - f``.
        self.threshold = len(self.servers) - max_faults(len(self.servers))
        self._claims: dict[ServerId, dict[ServerId, SeqNum]] = {}
        self._horizon: dict[ServerId, SeqNum] = {
            s: -1 for s in self.servers
        }
        self._dirty = False
        #: Times the agreed horizon advanced on any component.
        self.advances = 0
        if dag is not None:
            dag.add_insert_listener(self.observe)

    # -- observation ----------------------------------------------------------

    def observe(self, block: Block) -> None:
        """Fold one block's claim in (DAG insert listener)."""
        if not block.hz:
            return
        vector = self._claims.setdefault(block.n, {})
        if merge_claim(vector, block.hz):
            self._dirty = True

    # -- the agreed horizon ---------------------------------------------------

    @property
    def horizon(self) -> dict[ServerId, SeqNum]:
        """The agreed horizon vector (a fresh copy; -1 = nothing agreed)."""
        self._refresh()
        return dict(self._horizon)

    def value(self, server: ServerId) -> SeqNum:
        """``H[server]`` — the agreed sequence bound for one chain."""
        self._refresh()
        return self._horizon.get(server, -1)

    def covers(self, server: ServerId, k: SeqNum) -> bool:
        """Whether chain position ``(server, k)`` is at-or-below the
        agreed horizon — i.e. safe to prune, condemned to reference."""
        return k <= self.value(server)

    def condemns(self, block: Block) -> bool:
        """Whether a newly *arriving* block's own position is already
        below the agreed horizon (gossip's validity extension: too late
        to admit — its inputs are gone by agreement)."""
        return self.covers(block.n, block.k)

    def frontier_key(self) -> tuple[tuple[ServerId, SeqNum], ...]:
        """Canonical sorted rendering, for cross-server comparison."""
        self._refresh()
        return tuple(sorted(self._horizon.items()))

    def claimers(self) -> int:
        """Distinct servers whose claims this view has observed."""
        return len(self._claims)

    # -- internals ------------------------------------------------------------

    def _refresh(self) -> None:
        if not self._dirty:
            return
        self._dirty = False
        vectors = list(self._claims.values())
        for server in self.servers:
            if len(vectors) < self.threshold:
                break
            values = sorted(
                (v.get(server, -1) for v in vectors), reverse=True
            )
            agreed = values[self.threshold - 1]
            if agreed > self._horizon[server]:
                self._horizon[server] = agreed
                self.advances += 1
                if self.tracer.enabled:
                    self.tracer.emit(  # type: ignore[attr-defined]
                        "horizon-advance", chain=str(server), k=int(agreed)
                    )
