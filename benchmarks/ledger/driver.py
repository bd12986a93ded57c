"""Run one repetition of a workload and observe it from outside.

Live repetitions are plain ``subprocess.Popen`` of ``python -m
repro.node`` (or ``traced_node.py``) on the configs ``LiveCluster``
writes; the driver polls the status files the nodes already publish
(through the synchronous ``LiveCluster.statuses()``) every 20 ms and
reads ``/proc/<pid>`` for CPU and resident memory.  Simulated
repetitions run ``sim_rep.py`` in a child process so each one has its
own CPU clock and memory high-water mark.  While either kind runs, the
poll loop also samples the :class:`hostclock.HostClock` it was given,
and the repetition carries the host's pace over its set-up and its
window.

Process hygiene: every repetition has a hard timeout, every child is
SIGTERMed then SIGKILLed in ``finally`` and waited for, and the caller
owns (and removes) the run directory — a wedged cluster is a counted
failure, never a hung benchmark or a leaked node.

A repetition is returned as a plain dict; ``errors`` lists every failed
correctness check (empty = the repetition counts).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, Sequence

from hostclock import HostClock

from repro.obs.export import read_jsonl
from repro.obs.lifecycle import LifecycleIndex
from repro.obs.metrics import MetricsSnapshot
from repro.runtime.live.cluster import LiveCluster
from repro.scenario.live import compile_live_configs
from repro.scenario.spec import Scenario
from repro.types import ServerId

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

POLL_SECONDS = 0.02
#: Hard limits: a wedged repetition or probe is a counted failure.
REP_TIMEOUT = 45.0
PROBE_TIMEOUT = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Repetition modes: untraced, flight recorder on, span wrappers on.
PLAIN, RECORDER, TRACED = "plain", "recorder", "traced"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- /proc accounting ----------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """CPU seconds one process has used (0.0 once it is gone): the
    scheduler's nanosecond run time summed over its threads where the
    kernel exposes it, else ``utime + stime`` in 10 ms clock ticks."""
    try:
        return sum(
            int(task.read_text().split()[0])
            for task in Path(f"/proc/{pid}/task").glob("*/schedstat")
        ) / 1e9 or _stat_cpu_seconds(pid)
    except (OSError, ValueError, IndexError):
        return _stat_cpu_seconds(pid)


def _stat_cpu_seconds(pid: int) -> float:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of one process in KiB (0 once it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_bytes(root: Path) -> int:
    if not root.exists():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# -- process hygiene -----------------------------------------------------------


def stop_all(processes: Sequence[subprocess.Popen], grace: float = 10.0) -> None:
    """SIGTERM everyone, wait, SIGKILL stragglers, reap all."""
    for process in processes:
        if process.poll() is None:
            process.terminate()
    deadline = time.monotonic() + grace
    for process in processes:
        try:
            process.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def read_span_head(path: Path) -> dict | None:
    """One process's span summary (see :meth:`spans.SpanRecorder.head`)."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# -- the live arm --------------------------------------------------------------


def run_live_rep(
    scenario: Scenario, run_dir: Path, mode: str, clock: HostClock
) -> dict:
    """One live repetition of ``scenario`` under ``run_dir`` (a short
    path relative to the working directory: UDS paths are limited to
    108 bytes).  ``clock`` is sampled on every poll."""
    trace_dir = run_dir / "trace" if mode == RECORDER else None
    configs = compile_live_configs(scenario, run_dir, trace_dir=trace_dir)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    cluster = LiveCluster(configs, run_dir)
    servers = list(configs)
    some = configs[servers[0]]
    issued = sum(len(config.workload) for config in configs.values())
    rep: dict = {
        "arm": "live",
        "mode": mode,
        "errors": [],
        "issued": issued,
        "delivered": 0,
        "rounds": some.max_ticks,
        "servers": len(servers),
    }
    errors: list[str] = rep["errors"]
    processes: dict[ServerId, subprocess.Popen] = {}
    sockets = [Path(a.split(":", 1)[1]) for a in some.addresses.values()]
    env = child_env()
    started = time.perf_counter()
    deadline = started + REP_TIMEOUT
    spawned_at = setup_at = done_at = None
    cpu_start = cpu_end = 0.0
    statuses: dict = {}
    try:
        with open(run_dir / "nodes.log", "wb") as log:
            for server in servers:
                config_path = str(cluster.config_path(server))
                if mode == TRACED:
                    command = [
                        sys.executable,
                        str(HERE / "traced_node.py"),
                        "--config",
                        config_path,
                        "--spans",
                        str(run_dir / f"{server}.spans.json"),
                    ]
                else:
                    command = [
                        sys.executable, "-m", "repro.node", "--config", config_path
                    ]
                processes[server] = subprocess.Popen(
                    command, env=env, stdout=log, stderr=log
                )
        while True:
            now = time.perf_counter()
            if now > deadline:
                errors.append(f"timeout after {REP_TIMEOUT:.0f}s")
                break
            dead = [s for s, p in processes.items() if p.poll() is not None]
            if dead:
                errors.append(f"node(s) exited early: {dead}")
                break
            if spawned_at is None and all(p.exists() for p in sockets):
                spawned_at = now
            statuses = cluster.statuses()
            if len(statuses) == len(servers):
                if setup_at is None and all(s.tick >= 1 for s in statuses.values()):
                    setup_at = now
                    cpu_start = sum(proc_cpu_seconds(p.pid) for p in processes.values())
                if (
                    setup_at is not None
                    and all(s.complete for s in statuses.values())
                    and len({s.fingerprint for s in statuses.values()}) == 1
                ):
                    done_at = now
                    cpu_end = sum(proc_cpu_seconds(p.pid) for p in processes.values())
                    rep["peak_rss_kb"] = max(
                        proc_peak_rss_kb(p.pid) for p in processes.values()
                    )
                    break
            clock.sample()
            time.sleep(POLL_SECONDS)
    finally:
        stop_all(list(processes.values()))
    if done_at is None or setup_at is None:
        if not errors:
            errors.append("never completed")
        rep["log_tail"] = _tail(run_dir / "nodes.log")
        return rep

    # -- what the nodes published ------------------------------------------
    rep["spawn_s"] = (spawned_at if spawned_at is not None else setup_at) - started
    rep["setup_s"] = setup_at - started
    rep["setup_pace"] = clock.wall_pace(started, setup_at)
    rep["window_s"] = done_at - setup_at
    rep["wall_pace"] = clock.wall_pace(setup_at, done_at)
    rep["cpu_pace"] = clock.cpu_pace(setup_at, done_at)
    rep["kernel_ms"] = clock.kernel_seconds(setup_at, done_at) * 1e3
    rep["cpu_s"] = cpu_end - cpu_start
    rep["idle_frac"] = 1.0 - rep["cpu_s"] / (rep["window_s"] * len(servers))
    rep["wire_bytes"] = sum(s.wire_bytes for s in statuses.values())
    rep["blocks"] = sum(s.blocks for s in statuses.values())
    rep["ticks"] = sum(s.tick for s in statuses.values())
    rep["status_writes"] = sum(s.metrics_seq for s in statuses.values())
    rep["gate_timeouts"] = sum(s.gate_timeouts for s in statuses.values())
    rep["disk_bytes"] = tree_bytes(run_dir / "storage")
    delivered = 0
    for label, minimum in some.expected:
        everywhere = min(s.delivered.get(label, 0) for s in statuses.values())
        delivered += min(everywhere, minimum)
    rep["delivered"] = delivered

    merged = MetricsSnapshot.merge_all(cluster.scrape_metrics().values())
    rep["queue_drops"] = merged.total("transport.queue-drops")
    rep["reconnects"] = merged.total("transport.reconnects")
    rep["frames_out"] = merged.total("transport.frames-out")
    rep["queue_high_water"] = max(
        (p.high_water for p in merged.select("transport.queue-depth")), default=0
    )
    gate_wait = merged.get("node.gate-wait")
    rep["gate_wait_p50_ms"] = (
        gate_wait.quantile_us(0.5) / 1000.0 if gate_wait is not None else 0.0
    )

    # -- the correctness gate ------------------------------------------------
    if delivered < issued:
        errors.append(f"delivered {delivered} of {issued} everywhere")
    if rep["gate_timeouts"]:
        errors.append(f"gate_timeouts={rep['gate_timeouts']}")
    if rep["queue_drops"]:
        errors.append(f"queue drops={rep['queue_drops']}")
    if rep["reconnects"]:
        errors.append(f"reconnects={rep['reconnects']}")

    if mode == RECORDER:
        index = LifecycleIndex()
        for server in servers:
            for event in read_jsonl(trace_dir / f"{server}.jsonl"):  # type: ignore[operator]
                index.observe(server, event)
        stats = index.stats()
        rep["commit"] = stats.seal_to_interpret.as_dict()
        rep["seal_to_receive"] = stats.seal_to_first_receive.as_dict()
    if mode == TRACED:
        heads = [read_span_head(run_dir / f"{s}.spans.json") for s in servers]
        if any(head is None for head in heads):
            errors.append("missing span file")
        else:
            rep["spans"] = merge_span_heads(heads)  # type: ignore[arg-type]
    if errors:
        rep["log_tail"] = _tail(run_dir / "nodes.log")
    return rep


def _tail(path: Path) -> str:
    try:
        return path.read_text(errors="replace")[-2000:]
    except OSError:
        return ""


def merge_span_heads(heads: Sequence[dict]) -> dict:
    """Sum the per-process span summaries, wrapper costs and counts of
    one repetition (``buffered_peak`` is a maximum)."""
    summary: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for head in heads:
        for name, row in head["summary"].items():
            into = summary.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
        for key, value in head["counts"].items():
            if key == "buffered_peak":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    return {
        "summary": summary,
        "counts": counts,
        "wrapper_s": sum(head["wrapper_s"] for head in heads),
    }


# -- child scripts (simulated arm, recovery probe) -------------------------------


def _run_child(
    command: list[str],
    timeout: float,
    clock: HostClock,
    ready_marker: bytes | None = None,
) -> tuple[dict | None, tuple[float, float | None, float], str]:
    """Run one child to completion, sampling ``clock`` while it runs;
    return ``(last-line JSON, perf_counter readings at (start, ready
    marker seen, end), error text)``."""
    started = time.perf_counter()
    deadline = started + timeout
    ready_at: float | None = None
    process = subprocess.Popen(
        command, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert process.stdout is not None and process.stderr is not None
    out_fd, err_fd = process.stdout.fileno(), process.stderr.fileno()
    streams = {out_fd: bytearray(), err_fd: bytearray()}
    open_fds = set(streams)
    try:
        while open_fds:
            if time.perf_counter() > deadline:
                return None, (started, ready_at, deadline), f"timeout after {timeout:.0f}s"
            readable, _, _ = select.select(sorted(open_fds), [], [], POLL_SECONDS)
            for fd in readable:
                chunk = os.read(fd, 65536)
                if chunk:
                    streams[fd] += chunk
                else:
                    open_fds.discard(fd)
            if (
                ready_marker is not None
                and ready_at is None
                and ready_marker in streams[out_fd]
            ):
                ready_at = time.perf_counter()
            clock.sample()
        # Both pipes are closed: the child is exiting.
        try:
            process.wait(timeout=max(0.1, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return None, (started, ready_at, deadline), f"timeout after {timeout:.0f}s"
        times = (started, ready_at, time.perf_counter())
    finally:
        stop_all([process], grace=2.0)
    text = streams[out_fd].decode("utf-8", errors="replace")
    if process.returncode != 0:
        return None, times, (
            f"exit {process.returncode}: "
            + streams[err_fd].decode("utf-8", errors="replace")[-2000:]
        )
    try:
        return json.loads(text.strip().splitlines()[-1]), times, ""
    except (ValueError, IndexError):
        return None, times, f"unparseable child output: {text[-500:]!r}"


def run_sim_rep(
    scenario: Scenario, run_dir: Path, mode: str, clock: HostClock
) -> dict:
    """One simulated repetition in a child process.

    The child and this process share one CPU while it runs: the host's
    slow phases differ between cores, and ``clock`` has to sample the
    core the simulation is on (pinned, kernel time tracked the
    simulation's at r = 0.98 on the defining host; unpinned, 0.67).
    """
    if mode == RECORDER:
        scenario = dataclasses.replace(
            scenario, topology=dataclasses.replace(scenario.topology, trace=True)
        )
    scenario_path = run_dir / "scenario.json"
    scenario_path.write_text(scenario.to_json(), encoding="utf-8")
    command = [
        sys.executable,
        str(HERE / "sim_rep.py"),
        "--scenario",
        str(scenario_path),
        "--storage-root",
        str(run_dir / "storage"),
    ]
    spans_path = run_dir / "sim.spans.json"
    if mode == TRACED:
        command += ["--spans", str(spans_path)]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        document, (started, ready_at, ended), error = _run_child(
            command, REP_TIMEOUT, clock, b"READY\n"
        )
    finally:
        os.sched_setaffinity(0, allowed)
    rep: dict = {"arm": "sim", "mode": mode, "errors": []}
    if document is None or ready_at is None:
        rep.update(issued=scenario.workload.planned_total(), delivered=0)
        rep["errors"].append(error or "child never became ready")
        return rep
    rep.update(document)
    rep["setup_s"] = ready_at - started
    rep["setup_pace"] = clock.wall_pace(started, ready_at)
    rep["wall_pace"] = clock.wall_pace(ready_at, ended)
    rep["cpu_pace"] = clock.cpu_pace(ready_at, ended)
    rep["kernel_ms"] = clock.kernel_seconds(ready_at, ended) * 1e3
    rep["spawn_s"] = 0.0
    rep["idle_frac"] = max(0.0, 1.0 - rep["cpu_s"] / rep["window_s"])
    rep["disk_bytes"] = tree_bytes(run_dir / "storage")
    if mode == TRACED:
        head = read_span_head(spans_path)
        if head is None:
            rep["errors"].append("missing span file")
        else:
            rep["spans"] = merge_span_heads([head])
    return rep


def run_recovery_probe(
    scenario: Scenario,
    storage_dir: Path,
    server: str,
    run_dir: Path,
    traced: bool,
    clock: HostClock,
) -> dict:
    """Time restart-from-disk over what a repetition left in
    ``storage_dir`` (see ``recover_probe.py``)."""
    scenario_path = run_dir / "scenario.json"
    scenario_path.write_text(scenario.to_json(), encoding="utf-8")
    command = [
        sys.executable,
        str(HERE / "recover_probe.py"),
        "--scenario",
        str(scenario_path),
        "--storage",
        str(storage_dir),
        "--server",
        server,
        "--scratch",
        str(run_dir / "recover"),
    ]
    spans_path = run_dir / "recover.spans.json"
    if traced:
        command += ["--spans", str(spans_path)]
    document, _, error = _run_child(command, PROBE_TIMEOUT, clock)
    if document is None:
        return {"errors": [f"recovery probe: {error}"]}
    document["errors"] = []
    if traced:
        head = read_span_head(spans_path)
        if head is not None:
            document["spans"] = merge_span_heads([head])
    return document


# -- run directories -------------------------------------------------------------


@contextlib.contextmanager
def fresh_run_dir() -> Iterator[Path]:
    """A fresh run directory in the working directory (the checkout
    root: the benchmark writes nowhere else), removed on exit.  The
    path is relative, so the unix-socket paths below it stay under the
    108-byte limit wherever the checkout lives."""
    path = Path(tempfile.mkdtemp(prefix=".ledger_run_", dir="."))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
