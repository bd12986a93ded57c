"""Declarative workloads — request generators with latency tracking.

A workload is pure data: it says *when* requests enter the system, at
*which* servers, and under which labels.  The actual request objects
come from the protocol registry (each protocol names a deterministic
``make_request(index)`` factory), so the same workload description
replays against any embedded protocol and round-trips through JSON.

Two generator families cover the loops previously hand-written across
benchmarks and examples:

* :class:`OpenLoopWorkload` — a fixed injection *rate*: ``rate``
  requests every ``period`` rounds for ``rounds`` injection rounds,
  regardless of how the system keeps up (saturation studies).
* :class:`ClosedLoopWorkload` — a fixed number of in-flight *clients*:
  each client issues its next request only once the previous one is
  delivered everywhere (latency studies).

The :class:`WorkloadDriver` is the imperative half: it injects requests
into a live cluster, stamps issue times, detects deliveries and keeps
the per-request latency records the result layer summarizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar

from repro.errors import ScenarioError
from repro.jsonvalue import JsonDocument
from repro.types import Label, Request, ServerId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.cluster import Cluster

#: Deterministic request factory provided by the protocol registry.
RequestFactory = Callable[[int], Request]


@dataclass(frozen=True)
class Workload(JsonDocument):
    """Common declarative surface of all workload generators.

    ``sender`` selects the server a request enters at: ``round-robin``
    (default) cycles through live correct servers, ``random`` draws
    from the workload RNG, and ``fixed:<server>`` pins one server.
    ``shared_label`` collapses all requests onto one protocol instance
    (e.g. a replicated counter ledger); delivery of request ``i`` is
    then "every correct server raised at least ``i+1`` indications".
    Without it, request ``i`` gets its own instance ``tx-<i>``.
    """

    kind: ClassVar[str]

    sender: str = "round-robin"
    shared_label: str | None = None

    # -- declarative schedule -------------------------------------------------

    def planned_total(self) -> int:
        """Total requests this workload will ever issue."""
        raise NotImplementedError

    def due_at(self, round_index: int, issued: int, in_flight: int) -> int:
        """How many new requests to issue before ``round_index`` given
        ``issued`` so far and ``in_flight`` not yet delivered."""
        raise NotImplementedError

@dataclass(frozen=True)
class OpenLoopWorkload(Workload):
    """``rate`` requests injected every ``period`` rounds, starting at
    ``start_round``, for ``rounds`` injection rounds total."""

    kind = "open-loop"

    rate: int = 1
    rounds: int = 1
    period: int = 1
    start_round: int = 0

    def __post_init__(self) -> None:
        if self.rate < 1 or self.rounds < 0 or self.period < 1:
            raise ScenarioError(
                f"open-loop workload needs rate ≥ 1, rounds ≥ 0, period ≥ 1; "
                f"got rate={self.rate} rounds={self.rounds} period={self.period}"
            )

    def planned_total(self) -> int:
        return self.rate * self.rounds

    def due_at(self, round_index: int, issued: int, in_flight: int) -> int:
        offset = round_index - self.start_round
        if offset < 0 or offset % self.period:
            return 0
        if offset // self.period >= self.rounds:
            return 0
        return min(self.rate, self.planned_total() - issued)

@dataclass(frozen=True)
class ClosedLoopWorkload(Workload):
    """``clients`` requests kept in flight until ``total`` issued."""

    kind = "closed-loop"

    clients: int = 1
    total: int = 1

    def __post_init__(self) -> None:
        if self.clients < 1 or self.total < 1:
            raise ScenarioError(
                f"closed-loop workload needs clients ≥ 1 and total ≥ 1; "
                f"got clients={self.clients} total={self.total}"
            )

    def planned_total(self) -> int:
        return self.total

    def due_at(self, round_index: int, issued: int, in_flight: int) -> int:
        budget = self.total - issued
        slots = self.clients - in_flight
        return max(0, min(budget, slots))

@dataclass
class RequestRecord:
    """Lifecycle of one workload request."""

    index: int
    label: Label
    server: ServerId
    issue_round: int
    issue_time: float
    delivered_round: int | None = None
    delivered_time: float | None = None

    @property
    def delivered(self) -> bool:
        return self.delivered_round is not None

    def latency_rounds(self) -> int | None:
        if self.delivered_round is None:
            return None
        return self.delivered_round - self.issue_round + 1

    def latency_time(self) -> float | None:
        if self.delivered_time is None:
            return None
        return self.delivered_time - self.issue_time


class WorkloadDriver:
    """Runs one declarative workload against a live cluster."""

    def __init__(
        self,
        workload: Workload,
        make_request: RequestFactory,
        rng: random.Random,
    ) -> None:
        self.workload = workload
        self.make_request = make_request
        self.rng = rng
        self.records: list[RequestRecord] = []
        self._pending: list[RequestRecord] = []
        self._rr_cursor = 0
        #: Requests that came due while no sender was eligible (every
        #: correct server down or dying); issued at the next chance.
        self._deferred = 0

    # -- bookkeeping ----------------------------------------------------------

    @property
    def issued(self) -> int:
        return len(self.records)

    @property
    def delivered_count(self) -> int:
        return len(self.records) - len(self._pending)

    def exhausted(self) -> bool:
        """All planned requests have been issued (none still deferred)."""
        return (
            self._deferred == 0
            and self.issued >= self.workload.planned_total()
        )

    def all_delivered_now(self) -> bool:
        return not self._pending

    # -- sender selection -----------------------------------------------------

    def _eligible_senders(self, cluster: "Cluster", round_index: int) -> list[ServerId]:
        """Live correct servers not about to crash this very round — a
        request buffered into a server that dies before sealing it into
        a block is simply lost, which would deadlock AllDelivered."""
        dying = set(cluster.faults.crashes_at(round_index))
        return [s for s in cluster.correct_servers if s not in dying]

    def _pick_sender(
        self, eligible: list[ServerId], policy: str
    ) -> ServerId:
        if policy == "round-robin":
            server = eligible[self._rr_cursor % len(eligible)]
            self._rr_cursor += 1
            return server
        if policy == "random":
            return eligible[self.rng.randrange(len(eligible))]
        if policy.startswith("fixed:"):
            # before_round narrowed ``eligible`` to the pinned server
            # (and deferred the batch when it is down).
            return eligible[0]
        raise ScenarioError(
            f"unknown sender policy {policy!r} "
            f"(expected 'round-robin', 'random', or 'fixed:<server>')"
        )

    # -- driving --------------------------------------------------------------

    def before_round(self, cluster: "Cluster", round_index: int) -> None:
        """Inject the requests due at the start of ``round_index`` plus
        any carried over from rounds with no eligible sender."""
        # Count deferred requests as already issued for scheduling, so
        # the carry-over does not double against planned_total.
        due = self._deferred + self.workload.due_at(
            round_index, self.issued + self._deferred, len(self._pending)
        )
        if due <= 0:
            return
        eligible = self._eligible_senders(cluster, round_index)
        policy = self.workload.sender
        if policy.startswith("fixed:"):
            # A pinned sender that is currently down/dying defers the
            # whole batch (same carry-over as a total outage) instead
            # of aborting the run mid-flight.
            pinned = ServerId(policy.split(":", 1)[1])
            eligible = [s for s in eligible if s == pinned]
        if not eligible:  # sender(s) down/dying: carry over
            self._deferred = due
            return
        self._deferred = 0
        for _ in range(due):
            index = self.issued
            if self.workload.shared_label is not None:
                label = Label(self.workload.shared_label)
            else:
                label = Label(f"tx-{index}")
            server = self._pick_sender(eligible, self.workload.sender)
            record = RequestRecord(
                index=index,
                label=label,
                server=server,
                issue_round=round_index,
                issue_time=cluster.sim.now,
            )
            cluster.request(server, label, self.make_request(index))
            self.records.append(record)
            self._pending.append(record)

    def after_round(self, cluster: "Cluster", round_index: int) -> None:
        """Mark freshly delivered requests after ``round_index`` ran."""
        still_pending: list[RequestRecord] = []
        for record in self._pending:
            if self._record_delivered(cluster, record):
                record.delivered_round = round_index
                record.delivered_time = cluster.sim.now
            else:
                still_pending.append(record)
        self._pending = still_pending

    def final_sweep(self, cluster: "Cluster", round_index: int) -> None:
        """One last delivery check (off-line interpretation happens
        after the driving loop; late deliveries land here)."""
        self.after_round(cluster, round_index)

    def _record_delivered(self, cluster: "Cluster", record: RequestRecord) -> bool:
        if self.workload.shared_label is not None:
            # Request i on the shared instance is delivered once every
            # correct server has raised > i indications for it.
            return cluster.all_delivered(record.label, minimum=record.index + 1)
        return cluster.all_delivered(record.label)

    # -- summaries ------------------------------------------------------------

    def latencies_rounds(self) -> list[int]:
        return sorted(
            r.latency_rounds() for r in self.records if r.delivered  # type: ignore[misc]
        )

    def latencies_time(self) -> list[float]:
        return sorted(
            r.latency_time() for r in self.records if r.delivered  # type: ignore[misc]
        )
