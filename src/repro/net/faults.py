"""Network fault injection — everything Assumption 1 still permits.

Assumption 1 (reliable delivery) only constrains links between two
*correct* servers: messages may be delayed, duplicated and reordered
arbitrarily, but not lost forever.  :class:`LinkFaults` is what the
simulator consults for every message it sends:

* per-link loss and duplication probabilities.  Loss is only legal on
  links touching a declared-byzantine server; the constructor enforces
  this so no test can accidentally violate Assumption 1 and then
  "disprove" a liveness lemma;
* partition windows between two server groups; messages crossing the
  cut during a window are delivered no earlier than its heal time
  (delayed, not dropped — Assumption 1 again).

A cluster builds one from its
:class:`~repro.runtime.faults.FaultSchedule` and round duration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from repro.types import ServerId

#: One partition window ``(start, heal, group_a, group_b)`` in virtual
#: time: the cut between the groups holds during ``[start, heal)``.
Partition = tuple[float, float, frozenset[ServerId], frozenset[ServerId]]


@dataclass(frozen=True)
class LinkFaults:
    """Per-link loss/duplication tables and partition windows."""

    byzantine: frozenset[ServerId] = frozenset()
    loss: Mapping[tuple[ServerId, ServerId], float] = field(default_factory=dict)
    duplication: Mapping[tuple[ServerId, ServerId], float] = field(
        default_factory=dict
    )
    partitions: tuple[Partition, ...] = ()

    def __post_init__(self) -> None:
        for (src, dst), probability in self.loss.items():
            if probability > 0 and src not in self.byzantine and dst not in self.byzantine:
                raise ValueError(
                    f"loss on correct link {src}→{dst} violates Assumption 1; "
                    f"declare one endpoint byzantine"
                )

    def disposition(
        self,
        src: ServerId,
        dst: ServerId,
        now: float,
        rng: random.Random,
    ) -> tuple[int, float]:
        """How many copies of one message to deliver (0 = drop it) and
        the delay added to each copy's latency sample."""
        loss_p = self.loss.get((src, dst), 0.0)
        if loss_p > 0 and rng.random() < loss_p:
            return 0, 0.0
        copies = 1
        dup_p = self.duplication.get((src, dst), 0.0)
        while dup_p > 0 and rng.random() < dup_p and copies < 4:
            copies += 1
        extra = 0.0
        for start, heal, group_a, group_b in self.partitions:
            if start <= now < heal and (
                (src in group_a and dst in group_b)
                or (src in group_b and dst in group_a)
            ):
                extra = max(extra, heal - now)
        return copies, extra
