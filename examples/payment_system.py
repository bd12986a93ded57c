#!/usr/bin/env python3
"""A broadcast-based payment system on the block DAG framework.

The paper's introduction motivates block DAGs with payment systems
built on byzantine reliable/consistent broadcast (FastPay [2], the
consensusless-payments line of work [13]): a payment does not need
total-order consensus, only a broadcast that prevents the payer from
equivocating.

This example runs one BRB instance per payment — hundreds of parallel
instances riding the same block DAG "for free" — and settles a toy
account ledger from the delivered payments.  A byzantine payer who
tries to double-spend by equivocating gets exactly one of its two
conflicting payments accepted (consistency), at every correct server.

Run:  python examples/payment_system.py
"""

from dataclasses import dataclass

from repro import ByzantineFault, Cluster, FaultSchedule, brb_protocol, label
from repro.protocols.brb import Broadcast, Deliver
from repro.types import Label, make_servers


@dataclass(frozen=True)
class Payment:
    """A signed-by-inclusion payment order (authenticity comes from the
    block signature of the payer's block, §5)."""

    payer: str
    payee: str
    amount: int


def settle(shim, payment_labels, balances):
    """Replay delivered payments into an account ledger."""
    ledger = dict(balances)
    for payment_label in payment_labels:
        for indication in shim.indications_for(payment_label):
            assert isinstance(indication, Deliver)
            payment = indication.value
            if ledger.get(payment.payer, 0) >= payment.amount:
                ledger[payment.payer] -= payment.amount
                ledger[payment.payee] = ledger.get(payment.payee, 0) + payment.amount
    return ledger


def main() -> None:
    servers = make_servers(4)
    byz = servers[3]
    cluster = Cluster(
        brb_protocol,
        servers=servers,
        faults=FaultSchedule((ByzantineFault(byz, "equivocator"),)),
    )
    balances = {str(s): 100 for s in servers}

    # Honest payments: one BRB instance (label) per payment.
    payment_labels: list[Label] = []
    for i in range(8):
        payer = servers[i % 3]  # correct payers
        payee = servers[(i + 1) % 3]
        pay_label = label(f"pay-{i}")
        payment_labels.append(pay_label)
        cluster.request(
            payer, pay_label, Broadcast(Payment(str(payer), str(payee), 5))
        )

    # The byzantine payer double-spends: two conflicting payments for
    # the same payment id, one per fork branch.
    double = label("pay-double-spend")
    payment_labels.append(double)
    adversary = cluster.adversaries[byz]
    adversary.request(double, Broadcast(Payment(str(byz), str(servers[0]), 90)))
    adversary.fork_request(double, Broadcast(Payment(str(byz), str(servers[1]), 90)))

    cluster.run_until(
        lambda c: all(c.all_delivered(l) for l in payment_labels), max_rounds=30
    )

    ledgers = {}
    for server in cluster.correct_servers:
        shim = cluster.shim(server)
        ledgers[server] = settle(shim, payment_labels, balances)

    print("settled ledgers (every correct server computes the same):\n")
    for server, ledger in ledgers.items():
        print(f"  at {server}: {dict(sorted(ledger.items()))}")

    reference = next(iter(ledgers.values()))
    assert all(ledger == reference for ledger in ledgers.values()), (
        "correct servers disagree — consistency violated!"
    )

    double_values = {
        i.value.payee
        for s in cluster.correct_servers
        for i in cluster.shim(s).indications_for(double)
    }
    print(
        f"\ndouble-spend outcome: the conflicting payment settled to exactly "
        f"{sorted(double_values)} — one winner, everywhere."
    )
    print(f"total payments settled: {len(payment_labels)}")
    print(f"blocks in the DAG: {cluster.total_blocks()} "
          f"(independent of the number of payments — instances ride for free)")


if __name__ == "__main__":
    main()
