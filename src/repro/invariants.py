"""The invariant catalogue — the paper's checkable facts about a finished run.

Each invariant is a pure function of finished state that returns a list
of violations: empty means it holds, and each message names the server,
label or ``(builder, k)`` slot at fault.  Tests, examples and offline
audits call this one list instead of restating a check by hand.

* :func:`same_indications` — Theorem 5.1: ``shim(P)`` raises the same
  indications as ``P`` over point-to-point links;
* :func:`agreement` — the servers that indicated for a label indicated
  the same thing;
* :func:`well_formed_chains` — the DAG is acyclic and each listed
  builder's chain fills the slots ``k = 0..len-1`` with one block each;
* :func:`backward_closed` — every predecessor of every block, skeletons
  included, is in the DAG (Definition 3.4's closure);
* :func:`complete_interpretation` — every block (bar those of exempt
  builders) is interpreted on every server, none stalled below the
  horizon;
* :func:`same_interpreted` — every server interpreted the same blocks
  (Lemma 4.2: annotations are a function of the DAG);
* :func:`horizon_differences` — every server computed the same agreed
  horizon (kept in :mod:`repro.horizon.compare`, listed here);
* :func:`monotone_horizon` — over one server incarnation's samples of
  its agreed horizon, no component ever decreases.

:func:`backward_closed` and :func:`monotone_horizon` hold after every
step of a run, not only at its end, so a checker may call them per
round (Coglio and McCarthy state nonforking as invariants that each
transition preserves).

:func:`equivocations` is the §4/§6 report the rest of the catalogue
needs no trust for: per builder, the slots holding two or more blocks
that each verify under that builder's key — a transferable proof of
equivocation that a corrupted store cannot forge against a correct
server.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from repro.crypto.keys import KeyRing
from repro.dag.block import Block
from repro.dag.blockdag import BlockDag
from repro.dag.codec import encoding_key
from repro.horizon.compare import horizon_differences
from repro.protocols.base import Trace
from repro.types import Label, SeqNum, ServerId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shim.shim import Shim

__all__ = [
    "agreement",
    "backward_closed",
    "complete_interpretation",
    "equivocations",
    "horizon_differences",
    "monotone_horizon",
    "same_indications",
    "same_interpreted",
    "well_formed_chains",
]


def _indications(
    trace: Trace,
    servers: Collection[ServerId] | None,
    labels: Collection[Label] | None,
) -> dict[tuple[ServerId, Label], list[bytes]]:
    """Per ``(server, label)``: the sorted encodings of its indications,
    restricted to ``servers`` and ``labels`` when given."""
    summary: dict[tuple[ServerId, Label], list[bytes]] = {}
    for server, events in trace.indications.items():
        if servers is not None and server not in servers:
            continue
        for label, indication in events:
            if labels is None or label in labels:
                key = encoding_key(indication)
                summary.setdefault((server, label), []).append(key)
    for keys in summary.values():
        keys.sort()
    return summary


def same_indications(
    expected: Trace,
    actual: Trace,
    *,
    servers: Collection[ServerId] | None = None,
    labels: Collection[Label] | None = None,
) -> list[str]:
    """Theorem 5.1: per ``(server, label)``, ``actual`` holds the same
    multiset of indications as ``expected``.

    Order across instances is scheduling-dependent in both runtimes and
    the theorem promises nothing about it, so each instance compares as
    a multiset.  ``servers`` and ``labels`` restrict the comparison (the
    correct servers both runs share; the labels both runtimes executed)
    and a difference outside them is neither checked nor reported.
    """
    left = _indications(expected, servers, labels)
    right = _indications(actual, servers, labels)
    violations = []
    for server, label in sorted(left.keys() | right.keys()):
        want = left.get((server, label), [])
        got = right.get((server, label), [])
        if want != got:
            same_count = len(want) == len(got)
            violations.append(
                f"{server}/{label}: expected {len(want)} indications, got "
                f"{len(got)}" + (" with different contents" if same_count else "")
            )
    return violations


def agreement(trace: Trace, label: Label) -> list[str]:
    """The servers that indicated for ``label`` indicated the same
    contents (consistency; delivery itself is not required)."""
    by_content: dict[tuple[bytes, ...], list[ServerId]] = {}
    for (server, _), keys in sorted(_indications(trace, None, [label]).items()):
        by_content.setdefault(tuple(keys), []).append(server)
    if len(by_content) < 2:
        return []
    groups = " vs ".join(
        "{" + ", ".join(group) + "}" for group in sorted(by_content.values())
    )
    return [f"{label}: servers disagree, grouped by what they indicated: {groups}"]


def equivocations(
    dag: BlockDag, keyring: KeyRing
) -> dict[ServerId, dict[SeqNum, list[Block]]]:
    """The equivocation report: per builder, each ``(builder, k)`` slot
    of :meth:`BlockDag.forks` that holds two or more blocks whose
    signature verifies under the builder's key.

    A sibling whose signature fails proves nothing and is left out, so
    the report never accuses a correct server on a corrupted store's
    word: framing one would take forging its signature.
    """
    report: dict[ServerId, dict[SeqNum, list[Block]]] = {}
    for (builder, k), blocks in sorted(dag.forks().items()):
        signed = [
            block
            for block in blocks
            if keyring.verify(builder, block.signing_payload(), block.sigma)
        ]
        if len(signed) > 1:
            report.setdefault(builder, {})[k] = signed
    return report


def well_formed_chains(dag: BlockDag, builders: Iterable[ServerId]) -> list[str]:
    """The DAG is acyclic, and each of ``builders`` (the correct ones)
    holds one block per slot at ``k = 0..len-1``."""
    violations = [] if dag.graph.is_acyclic() else ["the block graph has a cycle"]
    for builder in builders:
        per_slot = Counter(block.k for block in dag.by_server(builder))
        for k, count in sorted(per_slot.items()):
            if count > 1:
                violations.append(f"({builder}, {k}): {count} blocks in one slot")
        if sorted(per_slot) != list(range(len(per_slot))):
            violations.append(f"{builder}: chain slots {sorted(per_slot)} have a gap")
    return violations


def backward_closed(dag: BlockDag) -> list[str]:
    """Every predecessor of every block in ``dag`` — a payload-pruned
    skeleton keeps its ``preds`` and is checked too — is in ``dag``."""
    return [
        f"({block.n}, {block.k}) {block.ref[:8]}: predecessor {pred[:8]} "
        "is not in the DAG"
        for block in dag
        for pred in block.preds
        if pred not in dag
    ]


def monotone_horizon(samples: Sequence[Mapping[ServerId, SeqNum]]) -> list[str]:
    """``samples`` are one server incarnation's agreed horizon vectors in
    the order taken; no builder's component may fall between two of
    them (an absent component reads ``-1``, nothing agreed)."""
    violations = []
    for index in range(1, len(samples)):
        before, after = samples[index - 1], samples[index]
        for builder, k in sorted(before.items()):
            now = after.get(builder, -1)
            if now < k:
                violations.append(
                    f"{builder}: agreed horizon fell from {k} to {now} "
                    f"at sample {index}"
                )
    return violations


def complete_interpretation(
    shims: Mapping[ServerId, "Shim"], *, exempt: Collection[ServerId] = ()
) -> list[str]:
    """Every block not built by an ``exempt`` seat is interpreted on
    every server, and no server stalled below the agreed horizon."""
    violations = []
    for server, shim in shims.items():
        interpreter = shim.interpreter
        stalled = interpreter.below_horizon
        if stalled:
            violations.append(f"{server}: {stalled} blocks stalled below the horizon")
        missing = sorted(
            f"({block.n}, {block.k}) {block.ref[:8]}"
            for block in shim.dag
            if block.n not in exempt and block.ref not in interpreter.interpreted
        )
        if missing:
            violations.append(f"{server}: uninterpreted blocks " + ", ".join(missing))
    return violations


def same_interpreted(shims: Mapping[ServerId, "Shim"]) -> list[str]:
    """Every server interpreted the same set of blocks as the first."""
    views = {
        server: set(shim.interpreter.interpreted) for server, shim in shims.items()
    }
    if not views:
        return []
    first, reference = next(iter(views.items()))
    return [
        f"{server}: interpreted {len(view - reference)} blocks {first} did not "
        f"and missed {len(reference - view)} it did"
        for server, view in views.items()
        if view != reference
    ]
