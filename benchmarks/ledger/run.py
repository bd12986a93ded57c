"""The performance ledger: one benchmark, four workloads, a per-layer
block budget.

Two ways in.

*The contract* (what the benchmark driver runs, from the checkout root)::

    python3 benchmarks/ledger/run.py --workload live-chain --seed 7 \\
        --seconds 20 --trace 0

measures one workload for ``--seconds`` and prints, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric with ``--trace 0`` (untraced
repetitions only), every per-layer metric with ``--trace 1``.

*The suite* (what a person runs)::

    python3 benchmarks/ledger/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--smoke] [--json OUT] [--twice]
    python3 benchmarks/ledger/run.py --compare A.json B.json

runs both passes of every selected workload, prints every metric by
name with its unit plus the per-workload budget table, and exits
non-zero if any correctness check failed.  ``--smoke`` runs CI-sized
workloads with one repetition of each kind.

See README.md beside this file for every definition.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # The ledger measures the checkout it sits in, never an installed copy.
    sys.exit(f"ledger: no src/repro under {ROOT}; nothing to measure")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare as compare_mod  # noqa: E402
import driver  # noqa: E402
import layers  # noqa: E402
from hostclock import HostClock  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from repro.scenario.live import compile_workload_schedule  # noqa: E402

MIN_TIMED_REPS = 3


class Measurement:
    """Everything one ``(workload, seed, trace)`` pass produced."""

    def __init__(self, workload: Workload, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.scenario = workload.build(seed, smoke)
        self.smoke = smoke
        self.reps: list[dict] = []
        self.errors: list[str] = []
        #: metric name -> one value per good repetition (end-to-end)
        #: or the single reported value (per-layer).
        self.samples: dict[str, list[float]] = {}
        self.budget = ""
        self.clock = HostClock()
        other = workload.build(seed + 1, smoke)
        rounds = self.scenario.max_rounds
        if compile_workload_schedule(self.scenario, rounds) == compile_workload_schedule(
            other, rounds
        ):
            self.errors.append("seed does not change the injection schedule")

    # -- repetitions -------------------------------------------------------------

    def rep(self, mode: str, run_dir: Path) -> dict:
        runner = (
            driver.run_live_rep if self.workload.arm == "live" else driver.run_sim_rep
        )
        started = time.perf_counter()
        rep = runner(self.scenario, run_dir, mode, self.clock)
        rep["took_s"] = time.perf_counter() - started
        self.reps.append(rep)
        for error in rep["errors"]:
            self.errors.append(f"{mode} repetition {len(self.reps)}: {error}")
            if rep.get("log_tail"):
                print(rep["log_tail"], file=sys.stderr)
        return rep

    def recovery(self, run_dir: Path, traced: bool) -> dict | None:
        """Restart-from-disk over what the repetition in ``run_dir`` left."""
        if not self.scenario.needs_storage():
            return None
        probe = driver.run_recovery_probe(
            self.scenario, run_dir / "storage" / "s1", "s1", run_dir, traced, self.clock
        )
        self.errors.extend(probe["errors"])
        return None if probe["errors"] else probe

    # -- the two passes ----------------------------------------------------------

    def end_to_end(self, seconds: float) -> None:
        """Untraced repetitions for ``seconds``; one sample per good
        repetition and metric (see :func:`layers.summarise`)."""
        started = time.perf_counter()
        while True:
            with driver.fresh_run_dir() as run_dir:
                self.rep(driver.PLAIN, run_dir)
            if self.smoke:
                break
            elapsed = time.perf_counter() - started
            longest = max(rep["took_s"] for rep in self.reps)
            if len(self.reps) >= MIN_TIMED_REPS and elapsed + longest > seconds:
                break
        good = [rep for rep in self.reps if not rep["errors"]]
        if self.workload.arm == "sim":
            exact = sorted({json.dumps(rep["exact"]) for rep in good})
            if len(exact) > 1:
                self.errors.append(
                    "simulated counts differ between repetitions of one seed: "
                    + "; ".join(exact)
                )
        for values in map(layers.end_to_end, good):
            for name, value in values.items():
                self.samples.setdefault(name, []).append(value)

    def per_layer(self, seconds: float) -> None:
        """One untraced, one flight-recorder and then traced repetitions
        until ``seconds`` are used; restart-from-disk probes ride on the
        untraced and the first traced one."""
        started = time.perf_counter()
        with driver.fresh_run_dir() as run_dir:
            plain = self.rep(driver.PLAIN, run_dir)
            recovery = None if plain["errors"] else self.recovery(run_dir, False)
        with driver.fresh_run_dir() as run_dir:
            recorder = self.rep(driver.RECORDER, run_dir)
        traced: list[dict] = []
        traced_recovery = None
        while True:
            with driver.fresh_run_dir() as run_dir:
                rep = self.rep(driver.TRACED, run_dir)
                if not rep["errors"] and not traced:
                    traced_recovery = self.recovery(run_dir, True)
            traced.append(rep)
            if self.smoke:
                break
            elapsed = time.perf_counter() - started
            if elapsed + max(r["took_s"] for r in traced) > seconds:
                break
        traced = [rep for rep in traced if not rep["errors"]]
        if plain["errors"] or recorder["errors"] or not traced:
            return
        values = layers.per_layer(plain, recorder, traced, recovery, traced_recovery)
        self.samples = {name: [value] for name, value in values.items()}
        self.budget = layers.budget_table(traced[0], plain["idle_frac"])

    # -- the result ----------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(rep["issued"] for rep in self.reps)

    @property
    def failed(self) -> int:
        """Requests not delivered everywhere, plus every request of a
        repetition that failed a check.  Never retried, never dropped
        from the denominator."""
        return sum(
            rep["issued"] if rep["errors"] else rep["issued"] - rep["delivered"]
            for rep in self.reps
        )

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0

    def metrics(self, declared: list[dict]) -> dict:
        """One ``{"value", "unit", "spread"}`` per metric
        ``BENCHMARK.json`` declares (see :func:`layers.summarise`)."""
        result = {}
        for metric in declared:
            name = metric["name"]
            value, spread = layers.summarise(self.samples.get(name, ()))
            result[name] = {"value": value, "unit": metric["unit"], "spread": spread}
        return result


def measure(workload: Workload, seed: int, seconds: float, trace: int, smoke: bool) -> Measurement:
    measurement = Measurement(workload, seed, smoke)
    if trace:
        measurement.per_layer(seconds)
    else:
        measurement.end_to_end(seconds)
    for error in measurement.errors:
        print(f"ledger: {workload.name}: {error}", file=sys.stderr)
    return measurement


# -- the contract --------------------------------------------------------------


def contract(
    declared: dict, workload: Workload, seed: int, seconds: float, trace: int, smoke: bool
) -> int:
    measurement = measure(workload, seed, seconds, trace, smoke)
    metrics = measurement.metrics(declared["per_layer" if trace else "end_to_end"])
    print(
        json.dumps(
            {
                "correct": measurement.correct,
                "attempted": max(1, measurement.attempted),
                "failed": measurement.failed,
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()
                },
            }
        )
    )
    return 0 if measurement.correct else 1


# -- the suite -----------------------------------------------------------------


def suite(
    declared: dict, names: list[str], seed: int, seconds: float, smoke: bool
) -> dict:
    document: dict = {
        "seed": seed,
        "smoke": smoke,
        "seconds": seconds,
        "workloads": {},
    }
    for name in names:
        workload = WORKLOADS[name]
        timed = measure(workload, seed, seconds, 0, smoke)
        traced = measure(workload, seed, seconds, 1, smoke)
        entry = {
            "why": workload.why,
            "correct": timed.correct and traced.correct,
            "attempted": timed.attempted + traced.attempted,
            "failed": timed.failed + traced.failed,
            "failed_fraction": layers.ratio(
                timed.failed + traced.failed, timed.attempted + traced.attempted
            ),
            "errors": timed.errors + traced.errors,
            "end_to_end": {
                metric: dict(value, samples=timed.samples.get(metric, []))
                for metric, value in timed.metrics(declared["end_to_end"]).items()
            },
            "per_layer": traced.metrics(declared["per_layer"]),
        }
        document["workloads"][name] = entry
        print(f"\n== {name} ({workload.arm}) — {workload.why}")
        print(
            f"   correct={entry['correct']} attempted={entry['attempted']} "
            f"failed={entry['failed']} failed_fraction={entry['failed_fraction']:.4f}"
        )
        print(
            f"  end to end (median of {len(timed.reps)} untraced repetitions, "
            f"times at the host's nominal pace; spread = their quartile "
            f"distance as a share of it):"
        )
        for metric, value in entry["end_to_end"].items():
            print(
                f"    {metric:<28}{value['value']:>14.5g} {value['unit']:<6} "
                f"spread {value['spread']:.3f}"
            )
        print("  per layer:")
        for metric, value in entry["per_layer"].items():
            print(f"    {metric:<42}{value['value']:>14.5g} {value['unit']}")
        if traced.budget:
            print("  budget (first traced repetition, CPU seconds over all servers):")
            print(traced.budget)
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--twice", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    # The catalogue: names, units, directions and bounds live here only.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        table, clean = compare_mod.compare(
            a, b, declared["end_to_end"], same_commit=False
        )
        print(table)
        return 0 if clean else 1

    # A terminated benchmark still stops its nodes: unwind through the
    # ``finally`` blocks instead of dying with children running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    json_out = Path(args.json).resolve() if args.json else None
    # Run directories are made in, and relative to, the checkout root
    # (see ``driver.fresh_run_dir``).
    os.chdir(ROOT)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return contract(
            declared,
            WORKLOADS[args.workload[0]],
            args.seed,
            args.seconds,
            args.trace,
            args.smoke,
        )

    names = args.workload or list(WORKLOADS)
    first = suite(declared, names, args.seed, args.seconds, args.smoke)
    documents = [first]
    clean = True
    if args.twice:
        second = suite(declared, names, args.seed, args.seconds, args.smoke)
        documents.append(second)
        table, clean = compare_mod.compare(
            first, second, declared["end_to_end"], same_commit=True
        )
        print("\n== two runs of one commit\n" + table)
    if json_out is not None:
        json_out.write_text(
            json.dumps(documents[-1], indent=2, sort_keys=True) + "\n"
        )
    correct = all(
        entry["correct"] for doc in documents for entry in doc["workloads"].values()
    )
    return 0 if correct and clean else 1


if __name__ == "__main__":
    sys.exit(main())
