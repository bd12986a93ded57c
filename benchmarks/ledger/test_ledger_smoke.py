"""Tier-1 smoke of the ledger: the CI-sized suite on one live and the
simulated workload emits every declared metric, the budget adds up,
and the benchmark code holds the relaxed lint contract."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_smoke_suite_emits_every_declared_metric(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "ledger.json"
    result = _run(
        str(HERE / "run.py"),
        "--smoke",
        "--workload",
        "live-chain",
        "--workload",
        "sim-faults",
        "--json",
        str(out),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    document = json.loads(out.read_text())
    assert set(document["workloads"]) == {"live-chain", "sim-faults"}
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["errors"])
        for kind in ("end_to_end", "per_layer"):
            for metric in declared[kind]:
                assert NAME.match(metric["name"]), metric
                emitted = entry[kind][metric["name"]]
                assert emitted["unit"] == metric["unit"], (name, metric)
                assert isinstance(emitted["value"], (int, float)), (name, metric)
                # Printed by name with its unit.
                assert metric["name"] in result.stdout
        for metric in declared["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0, (name, metric)
        residual = entry["per_layer"]["residual_frac"]["value"]
        assert 0.0 <= residual < 1.0, (name, residual)
    assert "residual" in result.stdout and "idle_frac" in result.stdout
    assert not list(ROOT.glob(".ledger_run_*"))


def test_contract_output_shape():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run(
        str(HERE / "run.py"),
        "--smoke",
        "--workload",
        "sim-faults",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
    )
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_benchmark_code_is_lint_clean():
    result = _run(
        "-m", "repro.lint", "--profile", "relaxed", "--no-baseline", str(HERE)
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_host_clock_reads_a_pace_for_any_interval():
    import time

    sys.path.insert(0, str(HERE))
    from hostclock import SAMPLE_SECONDS, HostClock

    clock = HostClock()
    since = time.perf_counter()
    for _ in range(3):
        time.sleep(SAMPLE_SECONDS)
        clock.sample()
    until = time.perf_counter()
    assert 0.1 < clock.cpu_pace(since, until) <= clock.wall_pace(since, until) < 100
    # An interval too short to hold a sample reads the nearest one.
    assert clock.cpu_pace(until, until) > 0
