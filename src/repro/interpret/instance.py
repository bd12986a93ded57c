"""Per-block interpretation state — the paper's ``B.PIs`` and ``B.Ms``.

Every interpreted block is annotated with (1) the process-instance map
of its *builder* — ``B.PIs[ℓ]`` is the state of ``P(ℓ, B.n)`` after
everything up to and including ``B`` — and (2) the message buffers.
The paper's footnote 1 notes an equivalent global-state representation;
we keep the per-block form because it makes the information flow of
Algorithm 2 literal and lets tests compare annotations directly
(Lemma 4.2).

``snapshot_instance`` canonicalizes a process instance's state for
equality assertions: two instances are behaviourally equal when their
plain-data attributes match (the context carries only static identity
plus drained effect queues).
"""

from __future__ import annotations

import copy
from typing import Any

from repro.interpret.buffers import MessageBuffers
from repro.protocols.base import INTERNAL_STATE_ATTRS, ProcessInstance
from repro.types import Label


class BlockState:
    """Annotation of one interpreted block: ``PIs`` and ``Ms``.

    ``pis`` maps labels to the *builder's* process instances; it is
    populated lazily (the paper's 'in an implementation, we would only
    start process instances for ℓ after receiving the first message or
    request', §4) and copied from the parent block on interpretation
    (Algorithm 2 line 4).
    """

    __slots__ = ("pis", "_ms")

    def __init__(self) -> None:
        self.pis: dict[Label, ProcessInstance] = {}
        #: Lazily materialized: most blocks in a steady-state run carry
        #: neither requests nor deliveries, and four dict allocations
        #: per block were measurable on the interpretation hot path.
        #: The interpreter reads the raw slot; everyone else goes
        #: through the property.
        self._ms: MessageBuffers | None = None

    @property
    def ms(self) -> MessageBuffers:
        """The ``Ms`` buffers, created on first touch."""
        buffers = self._ms
        if buffers is None:
            buffers = self._ms = MessageBuffers()
        return buffers


def snapshot_instance(instance: ProcessInstance) -> dict[str, Any]:
    """Canonical state snapshot of a process instance.

    Returns all instance attributes except the context, plus the
    context's static identity.  Deep-copied so the snapshot is
    insulated from further execution.  Used by Lemma 4.2 tests to
    assert that two servers' interpretations agree block-by-block.
    """
    state: dict[str, Any] = {}
    attrs: dict[str, Any] = {}
    if hasattr(instance, "__dict__"):
        attrs.update(instance.__dict__)
    for klass in type(instance).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot not in INTERNAL_STATE_ATTRS and hasattr(instance, slot):
                attrs.setdefault(slot, getattr(instance, slot))
    for name, value in attrs.items():
        # Generation stamps / cell tables are copy-on-write bookkeeping,
        # not protocol state: two behaviourally equal instances may
        # carry arbitrarily different stamps.
        if name in INTERNAL_STATE_ATTRS:
            continue
        state[name] = copy.deepcopy(value)
    ctx = instance.ctx
    state["__ctx__"] = {
        "self_id": ctx.self_id,
        "label": ctx.label,
        "servers": ctx.servers,
    }
    state["__class__"] = type(instance).__qualname__
    return state
