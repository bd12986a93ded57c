#!/usr/bin/env python3
"""A replicated ledger: PBFT-style consensus embedded in the block DAG.

Blockmania — one of the systems the paper generalizes — interprets its
block DAG as simplified PBFT.  This example does the same through the
generic framework: one consensus instance per ledger slot, leaders
rotating per slot, and a byzantine (silent) leader recovered by the
tick-driven view change.

Run:  python examples/consensus_ledger.py
"""

from repro import ByzantineFault, Cluster, FaultSchedule, label
from repro.protocols.pbft import Decide, Propose, Tick, pbft_protocol
from repro.types import make_servers


def decide_slot(cluster, slot, proposals, max_tick_bursts=6):
    """Drive one consensus slot to a decision at all correct servers.

    ``proposals`` maps servers to their proposed command; everyone
    proposes (only the slot's leader acts on it immediately — others
    keep it for view changes).  Ticks are injected between rounds,
    standing in for partial synchrony (§7)."""
    slot_label = label(f"slot-{slot}")
    for server, command in proposals.items():
        if server in cluster.shims:
            cluster.request(server, slot_label, Propose(command))
    for _ in range(max_tick_bursts):
        if cluster.all_delivered(slot_label):
            break
        cluster.request_all(slot_label, Tick())
        cluster.run_rounds(2)
    decisions = {
        server: [
            i.value
            for i in cluster.shim(server).indications_for(slot_label)
            if isinstance(i, Decide)
        ]
        for server in cluster.correct_servers
    }
    return slot_label, decisions


def main() -> None:
    servers = make_servers(4)
    byz = servers[0]  # the leader of view 0 — worst case — is silent
    cluster = Cluster(
        pbft_protocol,
        servers=servers,
        faults=FaultSchedule((ByzantineFault(byz, "silent"),)),
    )

    print(f"cluster: {list(servers)}; byzantine (silent): {byz}\n")
    ledger: dict[str, str] = {}
    commands = ["credit alice 10", "debit bob 4", "credit carol 7"]
    for slot, command in enumerate(commands):
        proposals = {s: command for s in cluster.correct_servers}
        slot_label, decisions = decide_slot(cluster, slot, proposals)
        values = {tuple(v) for v in decisions.values()}
        assert len(values) == 1, f"agreement violated at {slot_label}: {decisions}"
        decided = next(iter(values))[0]
        ledger[f"slot-{slot}"] = decided
        print(f"  {slot_label}: decided {decided!r} at all correct servers")

    print("\nfinal replicated ledger:")
    for slot, command in ledger.items():
        print(f"  {slot}: {command}")

    print(
        f"\nnote: slot 0's leader was the silent byzantine server; the "
        f"tick-driven view change elected the next leader and the slot "
        f"still decided — liveness under partial synchrony, with "
        f"deterministic processes (timeouts are data, not clocks)."
    )


if __name__ == "__main__":
    main()
