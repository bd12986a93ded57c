"""One conformance suite over the protocol registry.

Theorem 5.1 (the embedding gives the indications of ``P``) and Lemma
4.2 (every interpretation order gives the same annotations) are claims
about *any* deterministic ``P``.  So each protocol of
``repro.scenario.spec.PROTOCOLS`` is one :class:`Row` below, holding
only what differs between protocols, and every row runs the same six
checks:

1. Theorem 5.1 — the embedding equals ``DirectRuntime`` fault-free,
   with f silent seats and under network jitter, at each of the row's
   cluster sizes;
2. Lemma 4.2 — random DAGs give the same annotations and indications
   under any two ``Interpreter.run(choose=)`` schedules, also when the
   first run is extended incrementally;
3. the production arm (fork + write barrier, ready queue, rehydration)
   equals ``tests/reference.py`` under sampled equivocation x crash x
   partition schedules, with and without pruning;
4. the ``handler-purity`` certificate covers the row's handlers;
5. hostile requests — a byzantine seat whose equivocating blocks carry
   requests no correct user makes changes nothing a correct server
   indicates: the run equals the direct run with that seat silent;
6. the same request twice in one block — each request of the first
   batch is issued twice at its seat, so one block carries both: the
   embedding still equals ``DirectRuntime``, which sends and delivers
   the two requests' messages separately (two equal sends are one
   message of ``Ms``, see :mod:`repro.protocols.base`).

Checks 2-6 run at the row's first cluster size.

Adding a protocol takes one ``PROTOCOLS`` entry plus one row;
``test_one_row_per_registry_protocol`` fails until the two agree.
Protocol-specific safety predicates stay in the per-protocol files.
"""

from dataclasses import dataclass, replace
from pathlib import Path
import random
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.blockdag import BlockDag
from repro.interpret.interpreter import Interpreter
from repro.invariants import same_indications
from repro.lint import LintEngine
from repro.lint.engine import ProgramRule
from repro.lint.rules_purity import _certified_functions
from repro.net.latency import FixedLatency, JitterLatency
from repro.protocols.base import Payload, ProcessInstance, ProtocolSpec, Trace
from repro.protocols.bcb import BcbBroadcast
from repro.protocols.brb import Broadcast
from repro.protocols.counter import Inc, Total
from repro.protocols.pbft import Tick
from repro.protocols.phaseking import PkAdvance
from repro.runtime.adversary import EquivocatorAdversary, SilentAdversary
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.direct import DirectRuntime
from repro.scenario import (
    AllDelivered, And, ByzantineFault, CrashFault, DagsConverged, FaultSchedule,
    OpenLoopWorkload, PartitionFault, RoundsElapsed, Scenario, ScenarioRunner,
    StorageSpec, Topology,
)
from repro.scenario.spec import PROTOCOLS, ProtocolEntry
from repro.scenario.stop import StopCondition
from repro.storage.state_codec import annotation_fingerprint
from repro.types import Label, make_servers, max_faults

from helpers import ManualDagBuilder
from reference import ReferenceInterpreter

L = Label("shared")
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
#: Tier-1's example budgets; ``--hypothesis-profile conformance-deep``
#: (``tests/conftest.py``) swaps in that profile's.
DEEP = settings.get_current_profile_name() == "conformance-deep"


def budget(tier1: int) -> int:
    return settings().max_examples if DEEP else tier1


def one_per_label(correct, make):
    """Request ``i`` at seat ``i`` mod the correct seats, each on a
    label of its own: one sender per broadcast instance."""
    return [(correct[i % len(correct)], Label(f"l{i}"), make(i)) for i in range(12)]


def on_one_label(correct, make):
    """Every correct seat requests on one shared label."""
    return [(seat, L, make(i)) for i, seat in enumerate(correct)]


def in_lockstep(*rounds):
    """Batches: :func:`on_one_label`, then each of ``rounds`` at every
    correct seat (a synchronous round's end, a timer tick)."""
    return lambda correct, make: [on_one_label(correct, make)] + [
        [(seat, L, request) for seat in correct] for request in rounds
    ]


def last_per_instance(trace: Trace) -> Trace:
    """Each instance's final indication: a counter's running totals
    follow delivery order, which direct delivery does not share."""
    last = {}
    for server, events in trace.indications.items():
        for label, indication in events:
            last[server, label] = indication
    projected = Trace()
    for (server, label), indication in last.items():
        projected.record(server, label, indication)
    return projected


def without_seq(trace: Trace) -> Trace:
    """Each ``Applied`` without its ledger position: direct delivery
    applies a shared label in arrival order, the embedding in ``<_M``."""
    projected = Trace()
    for server, events in trace.indications.items():
        for label, applied in events:
            projected.record(server, label, replace(applied, seq=None))
    return projected


@dataclass(frozen=True)
class Row:
    """What differs between protocols; the checks are the suite's."""

    #: Requests no correct user makes (check 5).
    hostile: tuple
    #: ``(correct seats, PROTOCOLS[name].make_request)`` -> request
    #: batches of ``(seat, label, request)``, run one after another.
    batches: Callable = lambda correct, make: [one_per_label(correct, make)]
    #: Cluster sizes: check 1 runs at each, checks 2-5 at the first.
    sizes: tuple = (4,)
    #: Index in ``make_servers(n)`` of the first of the f seats silenced
    #: (check 1), counting down; check 5 makes that first seat hostile.
    silent: int = -1
    project: Callable[[Trace], Trace] = lambda trace: trace
    #: Check 3's workload sender and stop condition.
    sender: str = "round-robin"
    stop: StopCondition = AllDelivered()


ROWS = {
    # n = 7 tolerates f = 2: two silent seats, one size beyond the smallest.
    "brb": Row(hostile=("junk", Inc(1), Broadcast([1, 2]), Broadcast((1, [2]))), sizes=(4, 7)),
    "bcb": Row(hostile=("junk", Broadcast(1), BcbBroadcast([1]))),
    "counter": Row(
        batches=in_lockstep(), project=last_per_instance,
        hostile=("junk", Broadcast(1), Inc("x"), Inc([1])),
    ),
    "ledger": Row(
        batches=lambda correct, make: [
            one_per_label(correct, make) + on_one_label(correct, make)
        ],
        project=without_seq, hostile=("junk", Inc(1)),
    ),
    # The view-0 leader is silenced, so three ticks elect a new one.
    "pbft": Row(
        batches=in_lockstep(Tick(), Tick(), Tick()), silent=0, hostile=("junk", PkAdvance()),
        sender="fixed:s1",
    ),
    # n = 5 tolerates f = 1: two phases of two synchronous rounds.  It
    # never decides without ``PkAdvance``, so check 3 runs on a budget.
    "phaseking": Row(
        batches=in_lockstep(*[PkAdvance()] * 4), sizes=(5,), hostile=("junk", Tick()),
        stop=RoundsElapsed(12),
    ),
}

rows = pytest.mark.parametrize("name", sorted(ROWS))


def test_one_row_per_registry_protocol():
    assert sorted(ROWS) == sorted(PROTOCOLS)


# -- checks 1 and 5: the embedding against the direct runtime -------------


def interpreted_past(cluster, sealed) -> bool:
    """Whether every correct server interpreted an own block after all
    of ``sealed``; its next block refers to every block it admitted, so
    by then it received each message those blocks sent."""
    for server in cluster.correct_servers:
        shim = cluster.shim(server)
        tip = shim.dag.tip(server)
        if tip.ref not in shim.interpreter.interpreted:
            return False
        if not sealed <= shim.dag.graph.ancestors(tip.ref):
            return False
    return True


def faulty_seats(name, servers):
    """The f seats ``ROWS[name].silent`` names, counting down."""
    first = ROWS[name].silent
    return [servers[(first - i) % len(servers)] for i in range(max_faults(len(servers)))]


def run_both(name, condition, n, entry=None):
    """The row's batches through ``DirectRuntime`` and the embedding
    of ``entry`` (default: the row's registry protocol).  A batch is
    issued once the previous one is settled in both: the direct network
    drained, and every correct server interpreted past the batch's
    blocks and indicated as often as its direct twin.  A batch that
    never settles fails with ``same_indications``' per-server, per-label
    violations when there are any, and with the round budget only when
    the indications agree."""
    row, entry = ROWS[name], entry or PROTOCOLS[name]
    servers = make_servers(n)
    faulty = faulty_seats(name, servers) if condition in ("silent", "hostile") else []
    correct = [s for s in servers if s not in faulty]
    latency = JitterLatency(0.2, 2.0) if condition == "jitter" else FixedLatency()
    direct = DirectRuntime(entry.spec, servers=servers, silent=faulty, latency=latency, seed=17)
    adversaries = dict.fromkeys(faulty, SilentAdversary)
    if condition == "hostile":
        adversaries[faulty[0]] = EquivocatorAdversary
    cluster = Cluster(
        entry.spec, servers=servers, config=ClusterConfig(latency=latency, seed=23),
        adversaries=adversaries,
    )
    if condition == "hostile":
        seat = faulty[0]
        # Two branches of one chain, each carrying hostile requests:
        # one on the workload's labels, one on a label of its own.
        for request in row.hostile:
            for label in (Label("l0"), L):
                cluster.adversaries[seat].request(label, request)
            cluster.adversaries[seat].fork_request(Label("hostile"), request)
    for index, batch in enumerate(row.batches(correct, entry.make_request)):
        if condition == "twice" and index == 0:
            batch = [issue for issue in batch for _ in range(2)]
        for server, label, request in batch:
            direct.request(server, label, request)
            cluster.request(server, label, request)
        direct.run()
        cluster.run_rounds(1)  # seals the batch, one block per server
        sealed = {cluster.shim(s).dag.tip(s).ref for s in correct}
        try:
            cluster.run_until(
                lambda c: interpreted_past(c, sealed) and all(
                    len(c.shim(s).indications) >= len(direct.trace().at(s)) for s in correct
                ),
                max_rounds=24,
            )
        except TimeoutError:
            violations = differences(row, direct, cluster, correct)
            if violations:
                raise AssertionError("\n".join(violations)) from None
            raise
    cluster.settle()  # a late extra indication would show now
    assert differences(row, direct, cluster, correct) == []
    assert all(direct.trace().at(s) for s in correct), "nothing indicated: a vacuous comparison"
    return cluster


def differences(row, direct, cluster, correct):
    """Theorem 5.1's violations so far, each naming a server and label."""
    expected, actual = row.project(direct.trace()), row.project(cluster.trace())
    return same_indications(expected, actual, servers=correct)


@pytest.mark.parametrize(
    "name, n", [(name, n) for name in sorted(ROWS) for n in ROWS[name].sizes]
)
@pytest.mark.parametrize("condition", ["fault-free", "silent", "jitter"])
def test_theorem_5_1(name, n, condition):
    run_both(name, condition, n)


@rows
def test_hostile_requests_change_nothing_a_correct_server_indicates(name):
    n = ROWS[name].sizes[0]
    cluster = run_both(name, "hostile", n)
    seat = faulty_seats(name, make_servers(n))[0]
    assert cluster.adversaries[seat].forks_made > 0
    for shim in cluster.shims.values():
        hostile = {b.ref for b in shim.dag.blocks() if b.n == seat and b.rs}
        assert len(hostile) == 2 and hostile <= shim.interpreter.interpreted


@rows
def test_the_same_request_twice_in_one_block(name):
    cluster = run_both(name, "twice", ROWS[name].sizes[0])
    twice = [
        block
        for block in cluster.shim(cluster.servers[0]).dag.blocks()
        if any(block.rs.count(issue) > 1 for issue in block.rs)
    ]
    assert twice, "no block carried a request twice: a vacuous comparison"


@dataclass(frozen=True, slots=True)
class Tally(Payload):
    """A counter message without the sender's count: two ``Inc(x)``
    of one block send two equal messages, which ``Ms`` holds as one."""

    amount: int


class CollapsingCounter(ProcessInstance):
    """The counter row's protocol with :class:`Tally` for ``Add``."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.total = 0

    def on_request(self, request):
        self.ctx.broadcast(Tally(request.amount))

    def on_message(self, message):
        self.total += message.payload.amount
        self.ctx.indicate(Total(self.total))


def test_a_collapsed_request_fails_naming_the_server_and_label():
    # The embedding indicates once where DirectRuntime indicates twice,
    # so the batch never settles: the failure must say who lost what.
    collapsing = ProtocolEntry(
        "collapsing", ProtocolSpec("collapsing", CollapsingCounter), lambda i: Inc(i + 1)
    )
    with pytest.raises(AssertionError) as failure:
        run_both("counter", "twice", 4, entry=collapsing)
    assert f"s1/{L}: expected " in str(failure.value)
    assert "predicate still false" not in str(failure.value)


# -- check 2: schedule independence (Lemma 4.2) ----------------------------


#: DAG-building actions: a block, a block with a request, or an
#: equivocating sibling, each naming its builder, which other tips it
#: references, and which request of the pool it may carry.
DAG_SCRIPTS = st.lists(
    st.tuples(
        st.sampled_from(["block", "block", "block", "request", "fork"]),
        st.integers(0, 7), st.integers(0, 31), st.integers(0, 63),
    ),
    min_size=2, max_size=14,
)


def interpreted(builder, name, seed, interp=None):
    """``interp`` (or a fresh interpreter) run under a seeded random
    choice of eligible block at every step."""
    if interp is None:
        interp = Interpreter(builder.dag, PROTOCOLS[name].spec, builder.servers)
    rng = random.Random(seed)
    interp.run(choose=lambda frontier: frontier[rng.randrange(len(frontier))])
    return interp


def observed(interp, builder):
    annotations = {b.ref: annotation_fingerprint(interp, b.ref) for b in builder.dag.blocks()}
    events = sorted((e.label, repr(e.indication), e.server, e.block_ref) for e in interp.events)
    return annotations, events


@rows
@given(DAG_SCRIPTS, st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=budget(40), deadline=None)
def test_schedule_independence(name, actions, seed_a, seed_b):
    row, make = ROWS[name], PROTOCOLS[name].make_request
    builder = ManualDagBuilder(row.sizes[0])
    # The pool: the row's batches, nine values on one label (so forks
    # and builders carry conflicting values into one instance), and the
    # hostile requests.
    requests = [
        (label, request)
        for batch in row.batches(builder.servers, make)
        for _, label, request in batch
    ] + [(L, make(i)) for i in range(9)] + [(L, request) for request in row.hostile]
    for kind, seat, refs_mask, pick in actions:
        server = builder.servers[seat % len(builder.servers)]
        refs = [
            tip
            for bit, s in enumerate(builder.servers)
            if refs_mask & (1 << bit) and s != server and (tip := builder.dag.tip(s)) is not None
        ]
        rs = [requests[pick % len(requests)]] if kind != "block" else []
        if kind == "fork" and builder.dag.tip(server) is not None:
            try:
                builder.fork(server, rs=rs)
            except ValueError:
                pass  # the sibling would equal the tip
        else:
            builder.block(server, refs=refs, rs=rs)
    a = interpreted(builder, name, seed_a)
    # Extend G to G' >= G: G's annotations must not move (the extension
    # reading of Lemma 4.2), and G' must match a fresh run in any order.
    # Four fully connected layers carry G's instances to their
    # indications, so those are compared too.
    builder.round_all(rs_for={builder.servers[0]: requests[:1]})
    for _ in range(3):
        builder.round_all()
    interpreted(builder, name, seed_a, interp=a)
    assert observed(a, builder) == observed(interpreted(builder, name, seed_b), builder)


# -- check 3: the production arm against the reference ---------------------


def cow_scenario(name, partition_start, crash_round, equivocate_at, seed, prune):
    row = ROWS[name]
    faults = (
        ByzantineFault(server="s5", behaviour="equivocator", equivocate_at=(equivocate_at,)),
        PartitionFault(
            start_round=partition_start, heal_round=partition_start + 2,
            group_a=("s1", "s2"), group_b=("s3", "s4", "s5"),
        ),
        CrashFault(server="s3", crash_round=crash_round, restart_round=crash_round + 2),
    )
    return Scenario(
        name="conformance-cow", protocol=name,
        description="sampled fork x crash x partition schedule", seed=seed,
        topology=Topology(n=5, storage=StorageSpec(checkpoint_interval=6, prune=prune)),
        workload=OpenLoopWorkload(rate=1, rounds=4, sender=row.sender),
        faults=FaultSchedule(faults), stop=And((row.stop, DagsConverged())), max_rounds=48,
    )


@rows
@pytest.mark.parametrize("prune", [True, False])
@given(
    partition_start=st.integers(1, 2), crash_round=st.integers(2, 4),
    equivocate_at=st.integers(1, 3), seed=st.integers(0, 3),
)
@settings(max_examples=budget(4), deadline=None)
def test_production_arm_equals_the_reference(name, prune, **schedule):
    runner = ScenarioRunner(cow_scenario(name, prune=prune, **schedule))
    cluster = runner.cluster
    # Gossip admits only full blocks, after their predecessors: first
    # sight across the fleet is a payload-complete DAG in topological
    # order, whatever the pruner destroys later.
    complete = {}
    for shim in cluster.shims.values():
        shim.dag.add_insert_listener(lambda b: complete.setdefault(b.ref, b))
    assert runner.run().stopped_by == "stop-condition", "cluster failed to converge"
    dag = BlockDag()
    for block in complete.values():
        dag.insert(block)
    oracle = ReferenceInterpreter(dag, runner.entry.spec, cluster.servers)
    oracle.run()
    compared = 0
    for server, shim in cluster.shims.items():
        # A correct server's blocks are a chain, so every eligible
        # schedule emits its events in the same order.
        assert shim.indications == [
            (e.label, e.indication) for e in oracle.events if e.server == server
        ], f"{server}: indication trace diverges from the reference"
        interp = shim.interpreter
        assert interp.interpreted == oracle.interpreted
        # Equal refs mean equal causal pasts, so (Lemma 4.2) equal
        # annotations over every block still resident in memory.
        for ref in sorted(interp.interpreted - interp.released):
            assert annotation_fingerprint(interp, ref) == annotation_fingerprint(oracle, ref), (
                f"{server}: annotation diverged at {ref[:8]}"
            )
            compared += 1
    assert compared > 0, "no resident annotations to compare; test is vacuous"


# -- check 4: the handler-purity certificate -------------------------------


@pytest.fixture(scope="module")
def certified():
    """Inferred effects of every function ``handler-purity`` certifies
    in ``src/repro``, by ``module:Class.method``."""
    effects = {}

    class Certificate(ProgramRule):
        name = "certificate"

        def check_program(self, program):
            for _, fn in _certified_functions(program):
                effects[fn.qualname] = program.effects.inferred.get(fn.qualname, frozenset())
            return ()

    LintEngine([Certificate()]).run([SRC])
    return effects


@rows
def test_handler_purity_certificate_covers_the_handlers(name, certified):
    servers = make_servers(ROWS[name].sizes[0])
    process = type(PROTOCOLS[name].spec.create(servers, servers[0], L))
    for handler in (process.on_request, process.on_message):
        assert certified.get(f"{handler.__module__}:{handler.__qualname__}") == frozenset()
