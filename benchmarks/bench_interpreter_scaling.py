"""INTERPRETER-SCALING — incremental ready-queue scheduler vs frontier rescan.

The seed implementation realized ``eligible(B)`` by rescanning every
block in the DAG per interpreted block, and ran that scan on **every
insertion** — O(N²) total eligibility work in steady-state gossip.  The
incremental scheduler replaces it with a pending-in-degree map and a
ready queue fed by DAG insert listeners: O(|preds|) per insertion,
O(out-degree) per interpreted block, O(edges) total.

This benchmark replays the same steady-state shape for the scheduler
and for the reference interpreter of ``tests/reference.py`` (frontier
rescan per step, ``copy.deepcopy`` of the parent's ``PIs``) — insert
one block, run the interpreter, repeat — over identical DAGs of
growing size and prints, as one JSON document on stdout:

* total interpretation wall-time per interpreter and the speedup;
* per-block cost per DAG size (flat for the scheduler, growing for the
  rescan);
* per-insert cost by quartile of the largest run (flat within a run).

Run:  PYTHONPATH=src python benchmarks/bench_interpreter_scaling.py
  or: PYTHONPATH=src python benchmarks/bench_interpreter_scaling.py --smoke
  or: PYTHONPATH=src python -m pytest benchmarks/bench_interpreter_scaling.py -q
"""

import gc
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "tests"))

from helpers import ManualDagBuilder
from reference import ReferenceInterpreter
from repro.interpret.interpreter import Interpreter
from repro.protocols.counter import Inc, counter_protocol
from repro.types import Label

EXPERIMENT = "INTERPRETER_SCALING"

SERVERS = 8
SIZES = (256, 512, 1024, 2000)
SMOKE_SERVERS = 4
SMOKE_SIZES = (60, 120)
REQUEST_EVERY = 6  # rounds between counter requests (bounded state)

L = Label("l")


def build_workload(n_servers: int, n_blocks: int):
    """A fully-connected layered DAG of ≥ ``n_blocks`` blocks with
    periodic requests, plus its insertion order (topological)."""
    builder = ManualDagBuilder(n_servers)
    rounds = 0
    while len(builder.dag) < n_blocks:
        rs_for = {}
        if rounds % REQUEST_EVERY == 0:
            rs_for = {builder.servers[rounds // REQUEST_EVERY % n_servers]: [(L, Inc(1))]}
        builder.round_all(rs_for=rs_for)
        rounds += 1
    return builder, builder.dag.blocks()


def replay(blocks, servers, make=Interpreter):
    """Steady-state gossip shape: insert one block into a fresh DAG,
    run the interpreter ``make`` builds over it, repeat.  Returns
    (total_s, per-insert seconds).
    """
    from repro.dag.blockdag import BlockDag

    dag = BlockDag()
    interp = make(dag, counter_protocol, servers)
    per_insert = []
    gc_was_enabled = gc.isenabled()
    gc.disable()  # keep collector pauses out of per-insert samples
    try:
        total_start = time.perf_counter()
        for block in blocks:
            start = time.perf_counter()
            dag.insert(block)
            interp.run()
            per_insert.append(time.perf_counter() - start)
        total = time.perf_counter() - total_start
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    assert interp.blocks_interpreted == len(blocks)
    return total, per_insert


def measure_guard_ns(iterations: int = 500_000) -> float:
    """Wall cost of the tracing-off hot-path construct — one attribute
    check on the shared NULL_RECORDER — in nanoseconds per evaluation.

    This is the *entire* per-site price instrumentation adds when
    tracing is off; the overhead guard below bounds it against the
    measured per-block interpretation cost.
    """
    from repro.obs.trace import NULL_RECORDER

    tracer = NULL_RECORDER
    sink = 0

    # Subtract the bare loop cost: the instrumented sites pay the guard
    # *inline*, not a fresh loop iteration, so the honest per-site price
    # is the delta between the guarded loop and an empty one.  Noise
    # (scheduler preemption, frequency scaling) only ever *inflates* a
    # pass, so the minimum over a few passes is the robust estimate.
    def one_pass() -> float:
        nonlocal sink
        start = time.perf_counter()
        for _ in range(iterations):
            pass
        baseline = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(iterations):
            if tracer.enabled:
                sink += 1  # pragma: no cover - NULL_RECORDER never enabled
        return (time.perf_counter() - start) - baseline

    best = min(one_pass() for _ in range(3))
    assert sink == 0
    return max(0.1, 1e9 * best / iterations)


#: Instrumentation sites a block crosses on the interpret path (seal /
#: validate / interpret emissions plus wire hooks) — a deliberately
#: generous bound for the overhead model.
GUARD_SITES_PER_BLOCK = 8

#: Off-by-default tracing may cost at most this fraction of the
#: steady-state per-block interpretation cost.
MAX_OFF_OVERHEAD = 0.03


def tracing_metrics(blocks, servers, steady_state_incremental_us: float) -> dict:
    """The tracing A/B arm + the off-path guard model.

    Reports the measured cost of replaying with a live recorder (the
    tracing-ON price, informational) and the modelled OFF price:
    ``GUARD_SITES_PER_BLOCK`` guard evaluations per block as a fraction
    of the measured per-block cost — the quantity the guard asserts.
    """
    from repro.obs.trace import TraceRecorder
    from repro.types import ServerId

    guard_ns = measure_guard_ns()
    recorder = TraceRecorder(ServerId("bench"), clock=lambda: 0.0)
    traced_s, _ = replay(
        blocks, servers, lambda *args: Interpreter(*args, tracer=recorder)
    )
    untraced_s, _ = replay(blocks, servers)
    off_fraction = (
        GUARD_SITES_PER_BLOCK * guard_ns / 1000.0
    ) / steady_state_incremental_us
    return {
        "off_path_guard_ns": round(guard_ns, 2),
        "guard_sites_per_block": GUARD_SITES_PER_BLOCK,
        "off_overhead_fraction": round(off_fraction, 5),
        "max_off_overhead_fraction": MAX_OFF_OVERHEAD,
        "traced_seconds": round(traced_s, 6),
        "untraced_seconds": round(untraced_s, 6),
        "traced_overhead_ratio": round(traced_s / untraced_s, 3),
        "traced_events": recorder.seq,
    }


def quartile_means_us(per_insert):
    quarter = max(1, len(per_insert) // 4)
    return [
        round(1e6 * sum(chunk) / len(chunk), 2)
        for chunk in (
            per_insert[i : i + quarter]
            for i in range(0, quarter * 4, quarter)
        )
    ]


def run(smoke: bool = False) -> dict:
    n_servers = SMOKE_SERVERS if smoke else SERVERS
    sizes = SMOKE_SIZES if smoke else SIZES
    builder, blocks = build_workload(n_servers, max(sizes))
    series = []
    for size in sizes:
        prefix = blocks[:size]
        rescan_s, rescan_steps = replay(
            prefix, builder.servers, ReferenceInterpreter
        )
        incr_s, per_insert = replay(prefix, builder.servers)
        tail = max(1, len(prefix) // 10)
        # Median over the tail window: robust against stray scheduler /
        # allocator hiccups that a mean would smear into the signal.
        tail_rescan = statistics.median(rescan_steps[-tail:])
        tail_incr = statistics.median(per_insert[-tail:])
        series.append(
            {
                "blocks": len(prefix),
                "servers": n_servers,
                "rescan_seconds": round(rescan_s, 6),
                "incremental_seconds": round(incr_s, 6),
                "speedup": round(rescan_s / incr_s, 2),
                "rescan_us_per_block": round(1e6 * rescan_s / len(prefix), 2),
                "incremental_us_per_block": round(1e6 * incr_s / len(prefix), 2),
                # Marginal (steady-state) cost of one insertion at this
                # DAG size: mean over the last 10% of the run.
                "steady_state_rescan_us": round(1e6 * tail_rescan, 2),
                "steady_state_incremental_us": round(1e6 * tail_incr, 2),
                "steady_state_speedup": round(tail_rescan / tail_incr, 2),
                "incremental_quartile_us": quartile_means_us(per_insert),
            }
        )
    first, last = series[0], series[-1]
    result = {
        "experiment": EXPERIMENT,
        "mode": "smoke" if smoke else "full",
        "workload": {
            "servers": n_servers,
            "request_every_rounds": REQUEST_EVERY,
            "protocol": "counter",
        },
        "series": series,
        "speedup_at_max": last["speedup"],
        "steady_state_speedup_at_max": last["steady_state_speedup"],
        # Flatness: per-block cost growth from the smallest to the
        # largest DAG.  ~1.0 for the scheduler; rescan grows with N.
        "incremental_per_block_growth": round(
            last["incremental_us_per_block"] / first["incremental_us_per_block"], 2
        ),
        "rescan_per_block_growth": round(
            last["rescan_us_per_block"] / first["rescan_us_per_block"], 2
        ),
        "tracing": tracing_metrics(
            blocks[: sizes[-1]],
            builder.servers,
            last["steady_state_incremental_us"],
        ),
    }
    # Tracing-overhead guard (active in smoke mode too, so CI enforces
    # it): with tracing off the instrumented stack pays one attribute
    # check per site, and that must stay under MAX_OFF_OVERHEAD of the
    # per-block interpretation cost.
    assert result["tracing"]["off_overhead_fraction"] < MAX_OFF_OVERHEAD, (
        f"tracing-off guard overhead "
        f"{result['tracing']['off_overhead_fraction']:.4f} ≥ "
        f"{MAX_OFF_OVERHEAD} of per-block cost"
    )
    return result


def test_incremental_scheduler_scales():
    result = run()
    last = result["series"][-1]
    # Acceptance criteria: ≥5× over the rescan reference at 2,000
    # blocks / 8 servers.  The steady-state (marginal per-insert)
    # speedup is the robust signal; the cumulative whole-run speedup
    # gets a noise margin so a loaded CI host does not flake the
    # build.
    assert last["blocks"] == 2000 and last["servers"] == 8
    assert last["steady_state_speedup"] >= 5.0
    assert last["speedup"] >= 4.5
    # Per-block cost flat (not growing with DAG size) — generous noise
    # margin; the rescan baseline must visibly grow instead.
    assert result["incremental_per_block_growth"] <= 3.0
    assert result["rescan_per_block_growth"] > result["incremental_per_block_growth"]
    # Off-by-default tracing must be in the noise (also asserted inside
    # run(), so the smoke arm enforces it in CI).
    assert result["tracing"]["off_overhead_fraction"] < MAX_OFF_OVERHEAD


if __name__ == "__main__":
    print(json.dumps(run(smoke="--smoke" in sys.argv), indent=2))
