"""Benchmark-owned span wrappers around the layers' public entry points.

The ledger measures every layer *from outside*: nothing under ``src/``
knows about spans.  :func:`install` replaces each entry point listed in
:data:`TARGETS` with a wrapper that opens one span per call on a stack
held in memory and adds it to a running per-name summary; :meth:`dump`
writes that summary out once, when the process ends.  A span's *self*
time is its CPU time minus the CPU time of the spans opened inside it,
so the per-name self times of a process add up to (at most) its CPU
time; the part no span covers is the budget's residual.

CPU time (``time.thread_time``) rather than wall time is what adds up:
four node processes share two cores here, and a span that was
preempted half-way would otherwise charge its layer for the wait.

The wrappers cost CPU themselves, and on hot entry points (codec,
hashing) more than the call they wrap.  :func:`wrapper_costs` measures,
when the wrappers go in, what one wrapper adds *inside* its own
measured interval and *outside* it (where the enclosing span would be
charged); every span is corrected by those two figures as it closes,
and the sum taken out is reported as ``wrapper_s``, its own line of the
budget.

Every wrapped callable is synchronous, so the stack discipline holds on
the asyncio nodes too: a wrapped call runs to completion before the
loop can switch tasks.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import thread_time
from typing import Any, Callable


def _len_result(args: tuple, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


def _len_payload(args: tuple, result: object) -> int:
    return len(args[1])


#: ``(span name, module, class or None, attribute, items getter)``; the
#: part of the span name before ``:`` is its layer.
TARGETS: tuple[tuple[str, str, str | None, str, Any], ...] = (
    ("scenario:before_round", "repro.scenario.workload", "WorkloadDriver", "before_round", None),
    ("scenario:after_round", "repro.scenario.workload", "WorkloadDriver", "after_round", None),
    ("runtime.live:status", "repro.runtime.live.node", "LiveNode", "status", None),
    ("net.live:encode_frame", "repro.net.live.framing", None, "encode_frame", None),
    ("net.live:feed", "repro.net.live.framing", "FrameDecoder", "feed", _len_result),
    ("net.live:send", "repro.net.live.transport", "LiveTransport", "send", None),
    ("net.sim:step", "repro.net.simulator", "NetworkSimulator", "step", None),
    ("gossip:on_receive", "repro.gossip.module", "Gossip", "on_receive", None),
    ("gossip:disseminate", "repro.gossip.module", "Gossip", "disseminate", None),
    ("dag:validity", "repro.dag.blockdag", "Validator", "validity", None),
    ("dag:insert", "repro.dag.blockdag", "BlockDag", "insert", None),
    ("dag.codec:encode", "repro.dag.codec", None, "encode", None),
    ("dag.codec:decode", "repro.dag.codec", None, "decode", None),
    ("dag.codec:encoding_key", "repro.dag.codec", None, "encoding_key", None),
    ("crypto:sign", "repro.crypto.keys", "KeyRing", "sign", None),
    ("crypto:verify", "repro.crypto.keys", "KeyRing", "verify", None),
    ("crypto:hash_bytes", "repro.crypto.hashing", None, "hash_bytes", None),
    ("crypto:hash_fields", "repro.crypto.hashing", None, "hash_fields", None),
    ("interpret:run", "repro.interpret.interpreter", "Interpreter", "run", None),
    ("interpret:ordered", "repro.interpret.order", None, "ordered", None),
    ("protocols:step_message", "repro.protocols.base", "ProcessInstance", "step_message", None),
    ("protocols:step_request", "repro.protocols.base", "ProcessInstance", "step_request", None),
    ("shim:request", "repro.shim.shim", "Shim", "request", None),
    ("shim:on_network", "repro.shim.shim", "Shim", "on_network", None),
    ("shim:disseminate", "repro.shim.shim", "Shim", "disseminate", None),
    ("shim:checkpoint_now", "repro.shim.shim", "Shim", "checkpoint_now", None),
    ("shim:indications_for", "repro.shim.shim", "Shim", "indications_for", None),
    ("storage:append_block", "repro.storage.blockstore", "ServerStorage", "append_block", None),
    ("storage:flush_wal", "repro.storage.blockstore", "ServerStorage", "flush_wal", None),
    ("storage:write_checkpoint", "repro.storage.blockstore", "ServerStorage", "write_checkpoint", None),
    ("storage:wal_append", "repro.storage.wal", "WriteAheadLog", "append", _len_payload),
    ("storage:capture_checkpoint", "repro.storage.checkpoint", None, "capture_checkpoint", None),
    ("storage:prune", "repro.storage.gc", None, "prune", None),
    ("storage:recover_shim_state", "repro.storage.recover", None, "recover_shim_state", None),
    ("horizon:observe", "repro.horizon.tracker", "HorizonTracker", "observe", None),
    ("obs:snapshot", "repro.obs.metrics", "MetricsRegistry", "snapshot", None),
    ("obs:write_jsonl", "repro.obs.metrics", "MetricsSnapshot", "write_jsonl", None),
)

#: Instances whose public counters are read for the head:
#: span name -> which ``self`` to remember.
_REMEMBER = {
    "gossip:on_receive": "gossip",
    "gossip:disseminate": "gossip",
    "interpret:run": "interpreter",
    "storage:flush_wal": "storage",
}

#: One summary row: calls, inclusive CPU seconds, CPU self seconds,
#: inclusive CPU of the calls entered from another layer (what the
#: layer costs with everything it calls, counted once), calls that
#: opened at least one child span, the summed ``items`` (frames
#: decoded, WAL bytes), and calls made from inside another span.
_FIELDS = ("count", "cpu_s", "self_s", "outer_cpu_s", "with_children", "items", "nested")


class SpanRecorder:
    """The running span summary of one process, in memory until
    :meth:`dump`.  ``inside`` / ``outside`` are the wrapper's own CPU
    cost per call (see :func:`wrapper_costs`)."""

    def __init__(self, inside: float, outside: float) -> None:
        self.inside = inside
        self.outside = outside
        self.rows: dict[str, list] = {}
        #: Open spans: ``[layer, uncorrected CPU of closed children,
        #: children, descendants]``.
        self.stack: list[list] = []
        self.seen: dict[str, dict[int, object]] = {
            kind: {} for kind in set(_REMEMBER.values())
        }
        self.frozen: dict | None = None

    def wrap(self, fn: Callable, name: str, items_of: Callable | None) -> Callable:
        row = self.rows[name] = [0, 0.0, 0.0, 0.0, 0, 0, 0]
        layer = name.split(":", 1)[0]
        stack = self.stack
        inside, outside = self.inside, self.outside
        both = inside + outside
        remember = self.seen.get(_REMEMBER.get(name, ""))

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if remember is not None:
                remember.setdefault(id(args[0]), args[0])
            frame = [layer, 0.0, 0, 0]
            stack.append(frame)
            result = None
            started = thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                raw = thread_time() - started
                stack.pop()
                _, child_raw, children, descendants = frame
                cpu = raw - inside - descendants * both
                row[0] += 1
                row[1] += cpu
                row[2] += raw - child_raw - inside - children * outside
                if children:
                    row[4] += 1
                if items_of is not None and result is not None:
                    row[5] += items_of(args, result)
                if stack:
                    parent = stack[-1]
                    parent[1] += raw
                    parent[2] += 1
                    parent[3] += descendants + 1
                    row[6] += 1
                    if parent[0] != layer:
                        row[3] += cpu
                else:
                    row[3] += cpu

        return wrapper

    def reset(self) -> None:
        """Start the budget's window here: forget every closed span."""
        for row in self.rows.values():
            row[:] = [0, 0.0, 0.0, 0.0, 0, 0, 0]

    def freeze(self) -> None:
        """End the budget's window here: :meth:`dump` writes what was
        recorded up to this call (the first call counts)."""
        if self.frozen is None:
            self.frozen = self.head()

    def head(self) -> dict:
        summary = {
            name: dict(zip(_FIELDS, row)) for name, row in self.rows.items() if row[0]
        }
        spans = sum(row["count"] for row in summary.values())
        nested = sum(row["nested"] for row in summary.values())
        gossips = list(self.seen["gossip"].values())
        storages = list(self.seen["storage"].values())
        return {
            "summary": summary,
            # What the corrections took out of the spans above.  A
            # top-level wrapper's outside cost was never in any span:
            # it stays in the residual.
            "wrapper_s": spans * self.inside + nested * self.outside,
            # Counters the seen instances already keep (public attributes).
            "counts": {
                "fwd_requests": sum(g.metrics.fwd_requests_sent for g in gossips),
                "buffered_peak": max(
                    (g.metrics.buffered_high_water for g in gossips), default=0
                ),
                "condemned": sum(
                    g.metrics.invalid_blocks + g.metrics.condemned_below_horizon
                    for g in gossips
                ),
                "rehydrated": sum(
                    i.rehydrated for i in self.seen["interpreter"].values()
                ),
                "checkpoint_bytes": sum(s.checkpoints.bytes_written for s in storages),
            },
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.frozen or self.head(), out, sort_keys=True)


def wrapper_costs() -> tuple[float, float]:
    """CPU seconds one wrapper adds inside its own measured interval
    and outside it, measured on a wrapped no-op (best of three trials:
    interference only ever adds)."""

    def noop() -> None:
        return None

    calls = 5000
    best_inside = best_total = float("inf")
    for _ in range(3):
        probe = SpanRecorder(0.0, 0.0)
        wrapped = probe.wrap(noop, "probe:noop", None)
        started = thread_time()
        for _ in range(calls):
            noop()
        bare = thread_time() - started
        started = thread_time()
        for _ in range(calls):
            wrapped()
        total = thread_time() - started - bare
        best_inside = min(best_inside, probe.rows["probe:noop"][1] / calls)
        best_total = min(best_total, total / calls)
    return best_inside, max(0.0, best_total - best_inside)


def install() -> SpanRecorder:
    """Wrap every entry point in :data:`TARGETS`; return the recorder.

    Must run before the objects under measurement are built: bound
    methods captured at construction (``Validator(verify=keyring.verify)``,
    DAG insert listeners) resolve through the class at that moment.
    Module-level functions are rebound in every ``repro`` module that
    imported them by name.
    """
    recorder = SpanRecorder(*wrapper_costs())
    # Import everything that holds a by-name reference first.
    for module in (
        "repro.node.__main__",
        "repro.scenario.runner",
        "repro.net.live",
        "repro.storage",
        "repro.crypto",
    ):
        importlib.import_module(module)
    for span_name, module_name, class_name, attribute, items_of in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        original = getattr(owner, attribute)
        wrapped = recorder.wrap(original, span_name, items_of)
        setattr(owner, attribute, wrapped)
        if class_name is None:
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
    return recorder
