"""Typed live-arm metrics — wall-clock telemetry strictly outside trace identity.

The flight recorder (:mod:`repro.obs.trace`) answers *what happened* in
virtual time; the live arm runs real processes over real sockets and
needs *wall-clock* answers: how deep did a peer queue get, how long did
a reconnect take, what is the seal→interpret latency in milliseconds.
:class:`MetricsRegistry` holds those answers as typed instruments —
counters, gauges, and log2-µs histograms (:class:`Histogram`) — and is
never consulted by the trace recorder, so enabling metrics cannot
perturb a trace's bytes.

Snapshots are value objects with an *associative, commutative* merge:

- counters sum their values,
- gauges sum their values and take the max high-water mark,
- histograms sum bucket-wise (count, total, and max fold accordingly),

so a cluster-wide :class:`MetricsReport` is independent of scrape order.
Exports are canonical JSONL (sorted points, sorted keys, no
timestamps): for a fixed seed on the simulated arm the export is
byte-identical run to run.

This module is the one sanctioned wall-clock conduit — the
``no-wall-clock`` lint rule allows exactly ``repro.obs.metrics`` and
the scenario runner's wall-clock summary; instrumented sites import
``perf_counter`` from here and observe into a registry histogram.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, Mapping

from repro.errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricPoint",
    "MetricsError",
    "MetricsRegistry",
    "MetricsReport",
    "MetricsSnapshot",
    "perf_counter",
]

_KINDS = ("counter", "gauge", "histogram")

#: Histogram buckets: bucket ``i`` covers durations < 2**i microseconds.
_BUCKETS = 40


class MetricsError(ReproError):
    """A malformed metrics document or a kind mismatch on a name."""


def _label_items(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (frames, drops, retries)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written level plus its high-water mark (queue depth)."""

    __slots__ = ("value", "high_water")
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0
        self.high_water = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


def _bucket_quantile_us(
    buckets: Iterable[tuple[int, int]], count: int, fraction: float
) -> float:
    """Upper bucket edge (µs) containing the quantile, over ascending
    ``(bucket index, count)`` pairs — the one log2-bucket quantile."""
    if count == 0:
        return 0.0
    target = max(1, math.ceil(fraction * count))
    seen = 0
    for index, bucket in buckets:
        seen += bucket
        if seen >= target:
            return float(2**index)
    return float(2 ** (_BUCKETS - 1))


def _folded_buckets(
    pairs: Iterable[tuple[int, int]],
) -> tuple[tuple[int, int], ...]:
    """Sparse buckets in canonical form — ascending, one entry per
    index — which is what :func:`_bucket_quantile_us` walks."""
    folded: dict[int, int] = {}
    for index, count in pairs:
        index = int(index)
        if not 0 <= index < _BUCKETS:
            raise MetricsError(f"histogram bucket index {index} out of range")
        folded[index] = folded.get(index, 0) + int(count)
    return tuple(sorted(folded.items()))


class Histogram:
    """A log2 histogram over microseconds with exact count/total/max."""

    __slots__ = ("counts", "count", "total", "max")

    def __init__(self) -> None:
        self.counts = [0] * _BUCKETS
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        us = seconds * 1e6
        index = 0 if us < 1.0 else min(_BUCKETS - 1, int(math.log2(us)) + 1)
        self.counts[index] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def quantile_us(self, fraction: float) -> float:
        """Upper bucket edge (µs) containing the given quantile."""
        return _bucket_quantile_us(enumerate(self.counts), self.count, fraction)

    def summary(self) -> dict[str, float]:
        mean_us = (self.total / self.count * 1e6) if self.count else 0.0
        return {
            "count": float(self.count),
            "total_s": self.total,
            "mean_us": mean_us,
            "p50_us": self.quantile_us(0.50),
            "p99_us": self.quantile_us(0.99),
            "max_us": self.max * 1e6,
        }


class MetricsRegistry:
    """Named, labelled instruments; get-or-create on first use.

    Instruments are keyed by ``(name, sorted label items)``; asking for
    an existing key with a different kind raises :class:`MetricsError`.
    Hot paths should hold the returned instrument rather than re-resolve
    it per call.
    """

    def __init__(self, server: str | None = None) -> None:
        self.server = server
        self._instruments: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get(self, factory: type, name: str, labels: Mapping[str, str]) -> object:
        key = (name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = factory()
        elif not isinstance(instrument, factory):
            raise MetricsError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {factory.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    def timed(self, name: str, **labels: str) -> "_Timed":
        """Context manager observing wall-clock seconds into a histogram."""
        return _Timed(self.histogram(name, **labels))

    def snapshot(self, seq: int = 0) -> "MetricsSnapshot":
        points = []
        for (name, labels), instrument in self._instruments.items():
            if isinstance(instrument, Counter):
                points.append(
                    MetricPoint(name=name, kind="counter", labels=labels,
                                value=instrument.value)
                )
            elif isinstance(instrument, Gauge):
                points.append(
                    MetricPoint(name=name, kind="gauge", labels=labels,
                                value=instrument.value,
                                high_water=instrument.high_water)
                )
            else:
                histogram = instrument
                buckets = tuple(
                    (index, count)
                    for index, count in enumerate(histogram.counts)
                    if count
                )
                points.append(
                    MetricPoint(name=name, kind="histogram", labels=labels,
                                count=histogram.count, total=histogram.total,
                                max=histogram.max, buckets=buckets)
                )
        return MetricsSnapshot(points=tuple(points), server=self.server, seq=seq)


class _Timed:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timed":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._histogram.observe(perf_counter() - self._start)


@dataclass(frozen=True)
class MetricPoint:
    """One instrument's value at snapshot time — a pure value object."""

    name: str
    kind: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0
    high_water: float = 0
    count: int = 0
    total: float = 0.0
    max: float = 0.0
    #: Sparse log2-µs histogram: ``(bucket index, count)`` pairs.
    buckets: tuple[tuple[int, int], ...] = ()

    @property
    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (self.name, self.labels)

    def labelled(self, **extra: str) -> "MetricPoint":
        merged = dict(self.labels)
        merged.update({str(k): str(v) for k, v in extra.items()})
        return replace(self, labels=_label_items(merged))

    def merged(self, other: "MetricPoint") -> "MetricPoint":
        if other.key != self.key or other.kind != self.kind:
            raise MetricsError(f"cannot merge {other.key} into {self.key}")
        if self.kind == "counter":
            return replace(self, value=self.value + other.value)
        if self.kind == "gauge":
            return replace(
                self,
                value=self.value + other.value,
                high_water=max(self.high_water, other.high_water),
            )
        return replace(
            self,
            count=self.count + other.count,
            total=self.total + other.total,
            max=max(self.max, other.max),
            buckets=_folded_buckets(self.buckets + other.buckets),
        )

    def quantile_us(self, fraction: float) -> float:
        """Upper bucket edge (µs) containing the quantile — histogram only."""
        return _bucket_quantile_us(self.buckets, self.count, fraction)

    def to_dict(self) -> dict[str, object]:
        doc: dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "labels": {k: v for k, v in self.labels},
        }
        if self.kind == "counter":
            doc["value"] = self.value
        elif self.kind == "gauge":
            doc["value"] = self.value
            doc["high_water"] = self.high_water
        else:
            doc["count"] = self.count
            doc["total"] = self.total
            doc["max"] = self.max
            doc["buckets"] = [[index, count] for index, count in self.buckets]
        return doc

    @staticmethod
    def from_dict(doc: Mapping[str, object]) -> "MetricPoint":
        try:
            kind = str(doc["kind"])
            if kind not in _KINDS:
                raise MetricsError(f"unknown metric kind {kind!r}")
            return MetricPoint(
                name=str(doc["name"]),
                kind=kind,
                labels=_label_items(doc.get("labels", {})),  # type: ignore[arg-type]
                value=doc.get("value", 0),  # type: ignore[arg-type]
                high_water=doc.get("high_water", 0),  # type: ignore[arg-type]
                count=int(doc.get("count", 0)),  # type: ignore[arg-type]
                total=float(doc.get("total", 0.0)),  # type: ignore[arg-type]
                max=float(doc.get("max", 0.0)),  # type: ignore[arg-type]
                # Outside input: a foreign document need not keep the
                # buckets ascending or unique.
                buckets=_folded_buckets(doc.get("buckets", ())),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MetricsError(f"malformed metric point: {exc}") from exc


@dataclass(frozen=True)
class MetricsSnapshot:
    """A sorted, immutable set of points from one registry (or a merge)."""

    points: tuple[MetricPoint, ...] = ()
    server: str | None = None
    seq: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.points, key=lambda p: p.key))
        object.__setattr__(self, "points", ordered)

    def get(self, name: str, **labels: str) -> MetricPoint | None:
        key = (name, _label_items(labels))
        for point in self.points:
            if point.key == key:
                return point
        return None

    def select(self, name: str, **labels: str) -> Iterator[MetricPoint]:
        """Points with this name whose labels include the given items."""
        want = set(_label_items(labels))
        for point in self.points:
            if point.name == name and want.issubset(point.labels):
                yield point

    def total(self, name: str, **labels: str) -> float:
        """Sum of ``value`` over matching counter/gauge points."""
        return sum(point.value for point in self.select(name, **labels))

    def labelled(self, **extra: str) -> "MetricsSnapshot":
        return replace(
            self, points=tuple(point.labelled(**extra) for point in self.points)
        )

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        folded: dict[tuple[str, tuple[tuple[str, str], ...]], MetricPoint] = {
            point.key: point for point in self.points
        }
        for point in other.points:
            existing = folded.get(point.key)
            folded[point.key] = point if existing is None else existing.merged(point)
        server = self.server if self.server == other.server else None
        return MetricsSnapshot(
            points=tuple(folded.values()),
            server=server,
            seq=max(self.seq, other.seq),
        )

    @staticmethod
    def merge_all(snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        merged = MetricsSnapshot()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    # -- canonical JSONL -------------------------------------------------

    def to_jsonl(self) -> str:
        """One meta line plus one sorted-key line per point — canonical."""
        meta = {"kind": "metrics-meta", "seq": self.seq, "server": self.server}
        lines = [json.dumps(meta, sort_keys=True, separators=(",", ":"))]
        for point in self.points:
            lines.append(
                json.dumps(point.to_dict(), sort_keys=True, separators=(",", ":"))
            )
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str | Path) -> None:
        """Atomic write (tmp + rename) so scrapers never see torn files."""
        target = Path(path)
        tmp = target.with_suffix(target.suffix + ".tmp")
        tmp.write_text(self.to_jsonl(), encoding="utf-8")
        os.replace(tmp, target)

    @staticmethod
    def from_jsonl(text: str) -> "MetricsSnapshot":
        server: str | None = None
        seq = 0
        points = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MetricsError(f"malformed metrics line: {exc}") from exc
            if doc.get("kind") == "metrics-meta":
                server = doc.get("server")
                seq = int(doc.get("seq", 0))
            else:
                points.append(MetricPoint.from_dict(doc))
        return MetricsSnapshot(points=tuple(points), server=server, seq=seq)

    @staticmethod
    def read_jsonl(path: str | Path) -> "MetricsSnapshot":
        return MetricsSnapshot.from_jsonl(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class MetricsReport:
    """Cluster-wide view: per-server snapshots plus an order-independent
    merge in which every point carries a ``server`` label."""

    merged: MetricsSnapshot = MetricsSnapshot()
    by_server: tuple[tuple[str, MetricsSnapshot], ...] = ()

    @staticmethod
    def from_snapshots(
        snapshots: Mapping[str, MetricsSnapshot]
    ) -> "MetricsReport":
        ordered = tuple(sorted(snapshots.items()))
        merged = MetricsSnapshot.merge_all(
            snapshot.labelled(server=server) for server, snapshot in ordered
        )
        return MetricsReport(merged=merged, by_server=ordered)

    def snapshot(self, server: str) -> MetricsSnapshot | None:
        for name, snapshot in self.by_server:
            if name == server:
                return snapshot
        return None

    def top(self, n: int = 10, kind: str | None = None) -> list[MetricPoint]:
        """The n largest points by counter/gauge value or histogram count."""
        points = [
            p for p in self.merged.points if kind is None or p.kind == kind
        ]
        points.sort(
            key=lambda p: (p.count if p.kind == "histogram" else p.value),
            reverse=True,
        )
        return points[:n]

    def render(self, limit: int | None = None) -> str:
        """A fixed-width table of the merged view for CLI output."""
        lines = [
            f"{'metric':<28} {'labels':<26} {'kind':<9} "
            f"{'value':>12} {'p50 µs':>9} {'p99 µs':>9}"
        ]
        points = self.merged.points if limit is None else self.top(limit)
        for p in points:
            labels = ",".join(f"{k}={v}" for k, v in p.labels)
            if p.kind == "histogram":
                value = f"{p.count}"
                p50 = f"{p.quantile_us(0.50):.0f}"
                p99 = f"{p.quantile_us(0.99):.0f}"
            else:
                value = f"{p.value}"
                if p.kind == "gauge" and p.high_water != p.value:
                    value = f"{p.value}/{p.high_water}"
                p50 = p99 = "-"
            lines.append(
                f"{p.name:<28} {labels:<26} {p.kind:<9} {value:>12} "
                f"{p50:>9} {p99:>9}"
            )
        return "\n".join(lines)

    @staticmethod
    def _snapshot_dict(snapshot: MetricsSnapshot) -> dict[str, object]:
        return {
            "server": snapshot.server,
            "seq": snapshot.seq,
            "points": [point.to_dict() for point in snapshot.points],
        }

    @staticmethod
    def _snapshot_from(entry: Mapping[str, object]) -> MetricsSnapshot:
        server = entry.get("server")
        return MetricsSnapshot(
            points=tuple(
                MetricPoint.from_dict(p) for p in entry.get("points", ())  # type: ignore[union-attr]
            ),
            server=None if server is None else str(server),
            seq=int(entry.get("seq", 0)),  # type: ignore[arg-type]
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "merged": self._snapshot_dict(self.merged),
            "by_server": {
                server: self._snapshot_dict(snapshot)
                for server, snapshot in self.by_server
            },
        }

    @staticmethod
    def from_dict(doc: Mapping[str, object]) -> "MetricsReport":
        try:
            merged = MetricsReport._snapshot_from(doc.get("merged", {}))  # type: ignore[arg-type]
            by_server = tuple(
                (str(server), MetricsReport._snapshot_from(entry))
                for server, entry in sorted(doc.get("by_server", {}).items())  # type: ignore[union-attr]
            )
            return MetricsReport(merged=merged, by_server=by_server)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MetricsError(f"malformed metrics report: {exc}") from exc
