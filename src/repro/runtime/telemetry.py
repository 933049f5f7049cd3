"""Runtime telemetry: per-stage counters and latency histograms.

The serving pipeline (batching, sharding, hot swaps) needs operational
visibility without taxing the per-packet hot path.  Two recorder
implementations share one duck-typed interface:

* :data:`NULL_RECORDER` — a singleton whose methods are no-ops and whose
  ``enabled`` flag is False, so instrumented code can skip even the
  ``perf_counter`` calls when nobody is listening;
* :class:`Telemetry` — thread-safe counters plus log2-bucketed latency
  histograms, with a :meth:`~Telemetry.snapshot` API and text/JSON
  renderers for the CLI report.

Counter names are dotted strings (``engine.group_probes``,
``swap.rebuild_failures``, ...) so renderers can group them by stage.
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "HistogramStats",
    "LatencyHistogram",
    "NUM_BUCKETS",
    "NullRecorder",
    "NULL_RECORDER",
    "Telemetry",
    "TelemetryDelta",
    "TelemetrySnapshot",
    "bucket_bound",
    "bucket_index",
    "render_text",
]

#: Shared reusable no-op context manager returned by ``span`` when no
#: tracer is attached (``contextlib.nullcontext`` is reentrant).
_NULL_SPAN = contextlib.nullcontext()

#: Histogram buckets are powers of two in microseconds: bucket i holds
#: observations in [2**(i-1), 2**i) us, bucket 0 holds [0, 1) us.  The
#: one log2-us bucket layout shared by every latency histogram in the
#: package (telemetry, the stage waterfall, the flight recorder and the
#: Prometheus exposition).
NUM_BUCKETS = 40


def bucket_index(seconds: float) -> int:
    """Log2-us bucket of one observation, clamped to the last bucket."""
    micros = int(seconds * 1e6)
    return min(NUM_BUCKETS - 1, micros.bit_length()) if micros > 0 else 0


def bucket_bound(index: int) -> float:
    """Upper bound of bucket ``index`` in seconds."""
    return (1 << index) / 1e6


@dataclass(frozen=True)
class HistogramStats:
    """Summary of one latency histogram (all times in seconds).

    ``buckets`` carries the raw log2 bucket counts (trailing zero buckets
    trimmed) so snapshots are replayable: exporters can rebuild cumulative
    distributions — e.g. Prometheus ``le`` buckets — without re-observing.
    Bucket ``i`` spans ``[2**(i-1), 2**i)`` microseconds (bucket 0 holds
    sub-microsecond observations).
    """

    count: int
    total: float
    minimum: float
    maximum: float
    p50: float
    p99: float
    buckets: Tuple[int, ...] = ()

    @property
    def mean(self) -> float:
        """Arithmetic mean latency."""
        return self.total / self.count if self.count else 0.0

    bucket_upper_bound = staticmethod(bucket_bound)


class LatencyHistogram:
    """Log2-bucketed latency histogram (microsecond-scaled buckets).

    Buckets give O(1) recording with bounded memory while still answering
    quantile questions to within a factor of two — plenty for spotting a
    rebuild stall or a slow shard.
    """

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * NUM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0

    def observe(self, seconds: float) -> None:
        """Record one observation."""
        self.buckets[bucket_index(seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s observations into this histogram."""
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def _quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the q-quantile, seconds,
        clamped to the observed maximum (the log2 bucket bound can exceed
        every recorded latency by up to 2x)."""
        if not self.count:
            return 0.0
        need = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= need:
                return min(bucket_bound(i), self.maximum)
        return self.maximum  # pragma: no cover - defensive

    def stats(self) -> HistogramStats:
        """Freeze the histogram into summary statistics."""
        buckets = self.buckets
        last = NUM_BUCKETS
        while last > 0 and buckets[last - 1] == 0:
            last -= 1
        return HistogramStats(
            count=self.count,
            total=self.total,
            minimum=0.0 if self.count == 0 else self.minimum,
            maximum=self.maximum,
            p50=self._quantile(0.50),
            p99=self._quantile(0.99),
            buckets=tuple(buckets[:last]),
        )


def _copy_histogram(hist: LatencyHistogram) -> LatencyHistogram:
    clone = LatencyHistogram()
    clone.buckets = list(hist.buckets)
    clone.count = hist.count
    clone.total = hist.total
    clone.minimum = hist.minimum
    clone.maximum = hist.maximum
    return clone


class NullRecorder:
    """No-op recorder: every instrumentation hook vanishes.

    ``enabled`` is False so hot paths can also skip the clock reads that
    would feed :meth:`observe`.  ``tracer`` and ``heat`` are always None
    so span/heat instrumentation collapses to attribute loads.
    """

    enabled = False
    tracer = None
    heat = None

    def incr(self, counter: str, n: int = 1) -> None:
        """Discard a counter increment."""

    def observe(self, stage: str, seconds: float) -> None:
        """Discard a latency observation."""

    def span(self, name: str, parent=None, **tags):
        """No-op span context manager."""
        return _NULL_SPAN


#: Shared no-op recorder; the default for every instrumented component.
NULL_RECORDER = NullRecorder()


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Point-in-time copy of all counters and histogram summaries."""

    counters: Mapping[str, int]
    latencies: Mapping[str, HistogramStats]

    def counter(self, name: str) -> int:
        """Counter value (0 when never incremented)."""
        return self.counters.get(name, 0)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serializable).

        ``buckets`` holds the raw log2 bucket counts (trailing zeros
        trimmed; bucket ``i`` ends at ``2**i`` microseconds) so exported
        artifacts can be replayed into exact cumulative distributions.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "latencies": {
                name: {
                    "count": s.count,
                    "total_s": s.total,
                    "mean_s": s.mean,
                    "min_s": s.minimum,
                    "max_s": s.maximum,
                    "p50_s": s.p50,
                    "p99_s": s.p99,
                    "buckets": list(s.buckets),
                }
                for name, s in sorted(self.latencies.items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON rendering of :meth:`as_dict`."""
        return json.dumps(self.as_dict(), indent=indent)


@dataclass
class TelemetryDelta:
    """Picklable bundle of recorded-and-drained telemetry.

    Produced by :meth:`Telemetry.drain` and folded back with
    :meth:`Telemetry.absorb`; this is how sharded workers (thread replicas
    and shm worker processes alike) ship their local recordings back to
    the service recorder without sharing locks across shard or
    process boundaries.  ``heat`` and ``spans`` are opaque payloads from
    the attached heat profiler / tracer (None when not attached).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, LatencyHistogram] = field(default_factory=dict)
    heat: Optional[object] = None
    spans: Optional[List[object]] = None

    def is_empty(self) -> bool:
        """True when the delta carries no data at all."""
        return not (
            self.counters or self.histograms or self.heat or self.spans
        )


class Telemetry:
    """Thread-safe recorder: dotted counters + per-stage latency
    histograms.

    Recording takes one lock; the pipeline records in batch-sized
    aggregates (not per packet), so contention stays negligible.

    Optional observability sinks from :mod:`repro.obs` attach here:
    ``tracer`` (a :class:`~repro.obs.tracing.Tracer`) receives spans via
    :meth:`span`, and ``heat`` (a :class:`~repro.obs.heat.HeatProfiler`)
    is read directly by instrumented engines.  Both default to None, in
    which case :meth:`span` returns a shared no-op context manager.
    """

    enabled = True

    def __init__(self, tracer=None, heat=None) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._latencies: Dict[str, LatencyHistogram] = {}
        self.tracer = tracer
        self.heat = heat

    def incr(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to ``counter`` (created on first use)."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + n

    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency observation for ``stage``."""
        with self._lock:
            hist = self._latencies.get(stage)
            if hist is None:
                hist = self._latencies[stage] = LatencyHistogram()
            hist.observe(seconds)

    def counter(self, name: str) -> int:
        """Current value of one counter."""
        with self._lock:
            return self._counters.get(name, 0)

    def merge(self, other: "Telemetry") -> None:
        """Fold another recorder's data in (used when shards keep local
        recorders)."""
        snap = other.snapshot()
        with self._lock:
            for name, value in snap.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
        with other._lock:
            for stage, hist in other._latencies.items():
                with self._lock:
                    mine = self._latencies.get(stage)
                    if mine is None:
                        mine = self._latencies[stage] = LatencyHistogram()
                    mine.merge(hist)

    def span(self, name: str, parent=None, **tags):
        """Span context manager from the attached tracer (no-op without
        one).  Hot paths call this under an ``if recorder.enabled`` guard,
        so the disabled pipeline never reaches it."""
        tracer = self.tracer
        if tracer is None:
            return _NULL_SPAN
        return tracer.span(name, parent=parent, **tags)

    def drain(self, sinks: bool = True) -> TelemetryDelta:
        """Atomically remove and return everything recorded so far.

        The returned :class:`TelemetryDelta` is picklable (locks are not
        carried), including drained payloads from the attached heat
        profiler and tracer when present, so shm shard workers can ship
        it across the IPC boundary.  Pass ``sinks=False`` when
        this recorder *shares* its tracer/heat with the fold-back target
        (thread-mode shard replicas): those recordings are already in
        place and must not be round-tripped.
        """
        with self._lock:
            counters, self._counters = self._counters, {}
            histograms, self._latencies = self._latencies, {}
        heat = spans = None
        if sinks:
            heat = self.heat.drain() if self.heat is not None else None
            spans = self.tracer.drain() if self.tracer is not None else None
        return TelemetryDelta(counters, histograms, heat, spans)

    def absorb(self, delta: TelemetryDelta) -> None:
        """Fold a drained delta back in (inverse of :meth:`drain`).

        Heat and span payloads route to this recorder's own attached
        profiler/tracer; they are dropped when no sink is attached.
        """
        with self._lock:
            for name, value in delta.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for stage, hist in delta.histograms.items():
                mine = self._latencies.get(stage)
                if mine is None:
                    mine = self._latencies[stage] = LatencyHistogram()
                mine.merge(hist)
        if delta.heat is not None and self.heat is not None:
            self.heat.absorb(delta.heat)
        if delta.spans and self.tracer is not None:
            self.tracer.ingest(delta.spans)

    def reset(self) -> None:
        """Drop all recorded data."""
        with self._lock:
            self._counters.clear()
            self._latencies.clear()

    # -- copy/pickle support -------------------------------------------
    # Engines holding a recorder get deep-copied into shard replicas;
    # the lock must not travel, and the attached sinks (tracer/heat) are
    # process-local by design.
    def __getstate__(self) -> Dict[str, object]:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "latencies": {
                    name: _copy_histogram(hist)
                    for name, hist in self._latencies.items()
                },
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._lock = threading.Lock()
        self._counters = dict(state["counters"])
        self._latencies = dict(state["latencies"])
        self.tracer = None
        self.heat = None

    def snapshot(self) -> TelemetrySnapshot:
        """Consistent copy of counters and histogram summaries."""
        with self._lock:
            return TelemetrySnapshot(
                counters=dict(self._counters),
                latencies={
                    name: hist.stats()
                    for name, hist in self._latencies.items()
                },
            )


def _group_by_stage(names: Iterator[str]) -> Dict[str, List[str]]:
    groups: Dict[str, List[str]] = {}
    for name in names:
        stage = name.split(".", 1)[0]
        groups.setdefault(stage, []).append(name)
    return groups


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_text(snapshot: TelemetrySnapshot) -> str:
    """Human-readable telemetry report, grouped by pipeline stage."""
    lines: List[str] = ["telemetry:"]
    by_stage = _group_by_stage(iter(sorted(snapshot.counters)))
    for stage in sorted(by_stage):
        lines.append(f"  {stage}:")
        for name in by_stage[stage]:
            short = name.split(".", 1)[1] if "." in name else name
            lines.append(f"    {short:<24} {snapshot.counters[name]:>12,}")
    if snapshot.latencies:
        lines.append("  latency:")
        for name in sorted(snapshot.latencies):
            s = snapshot.latencies[name]
            lines.append(
                f"    {name:<24} n={s.count:<8} mean={_fmt_seconds(s.mean)}"
                f" p50={_fmt_seconds(s.p50)} p99={_fmt_seconds(s.p99)}"
                f" max={_fmt_seconds(s.maximum)}"
            )
    return "\n".join(lines)
