#!/usr/bin/env python3
"""Off-line interpretation & equivocation audit.

Two of the paper's themes in one example:

* the block DAG can be interpreted *after the fact* by anyone holding
  it ("applying the higher-level protocol logic off-line possibly
  later", §1 — and the PeerReview accountability lineage, §6);
* equivocations are permanently visible in the DAG, so an auditor can
  produce evidence against a byzantine server (the Polygraph remark in
  §6).

An equivocating server runs against honest peers; afterwards we hand
one honest server's DAG to a fresh "auditor" process that never took
part in the protocol.  The auditor re-derives every server's
indications bit-for-bit and prints the invariant catalogue's
equivocation report: every fork slot whose blocks all carry the
builder's signature.

Run:  python examples/byzantine_audit.py
"""

from repro import ByzantineFault, Cluster, FaultSchedule, brb_protocol, label
from repro.interpret.interpreter import Interpreter
from repro.invariants import equivocations
from repro.protocols.brb import Broadcast, Deliver
from repro.types import make_servers
from repro.viz import render_lanes


def main() -> None:
    servers = make_servers(4)
    byz = servers[3]
    cluster = Cluster(
        brb_protocol,
        servers=servers,
        faults=FaultSchedule((ByzantineFault(byz, "equivocator"),)),
    )
    tx = label("tx")
    adversary = cluster.adversaries[byz]
    adversary.request(tx, Broadcast("genuine"))
    adversary.fork_request(tx, Broadcast("forged"))
    cluster.run_until(lambda c: c.all_delivered(tx), max_rounds=20)

    # --- the audit: a fresh interpreter over a copied DAG ---------------
    evidence_dag = cluster.shim(servers[0]).dag.copy()
    auditor = Interpreter(evidence_dag, brb_protocol, servers)
    auditor.run()

    print("auditor's replay of every server's indications:")
    delivered = {}
    for event in auditor.events:
        if isinstance(event.indication, Deliver):
            delivered[event.server] = event.indication.value
    for server in sorted(delivered):
        print(f"  {server} delivered {delivered[server]!r}")

    live = {
        s: [i.value for i in cluster.shim(s).indications_for(tx)]
        for s in cluster.correct_servers
    }
    print(f"\nlive shims saw: {live}")
    for server, values in live.items():
        assert values == [delivered[server]], "audit mismatch!"
    print("audit matches the live run exactly (Lemma 4.2).")

    # --- the equivocation report -------------------------------------------
    # The report re-checks every signature and drops a sibling that
    # fails, so a corrupted copy of the DAG cannot frame a correct
    # server.
    report = equivocations(evidence_dag, cluster.keyring)
    signed = sum(len(slots) for slots in report.values())
    print(
        f"\nequivocation report: {signed} of {len(evidence_dag.forks())} fork "
        "slots hold two or more blocks that verify under the builder's key"
    )
    for owner, slots in report.items():
        for seq, blocks in slots.items():
            refs = ", ".join(str(b.ref)[:8] for b in blocks)
            print(
                f"  ({owner}, {seq}): {len(blocks)} blocks signed by {owner} "
                f"[{refs}] — transferable proof of equivocation"
            )
    assert set(report) == {byz}

    print("\nthe DAG the auditor saw:\n")
    print(render_lanes(evidence_dag))


if __name__ == "__main__":
    main()
