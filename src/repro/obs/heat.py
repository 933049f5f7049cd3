"""Per-rule / per-group heat profiling.

The paper's §6 evaluation reasons about *which* groups absorb traffic and
how often candidates fail their false-positive check; the serving
pipeline's aggregate counters cannot answer that.  A
:class:`HeatProfiler` attaches to a :class:`~repro.runtime.telemetry.
Telemetry` recorder (its ``heat`` slot) and tallies, with optional
sampling:

* **rule heat** — winning body-rule index -> hit count;
* **group heat** — per order-independent group (position + field subset):
  probes, candidates produced, false-positive check failures, verified
  hits;
* **FP outcomes** — global candidate / pass / fail tallies.

``sample_period=k`` records every k-th packet (stride sampling over the
already-vectorized batch arrays, so the profiler costs O(batch/k) even on
the hot path); reported counts are scaled back up by ``k`` in
:meth:`HeatProfiler.report`.

The heat report feeds two consumers: the ``repro top`` CLI renderer
(:func:`render_top`) and cache tuning — :func:`rule_weights` turns a
report into the ``heat`` argument of
:class:`~repro.saxpac.cache.ClassificationCache`, which then keeps the
*hottest* (instead of highest-priority) rules when trimming to capacity.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GroupHeat",
    "HeatProfiler",
    "load_heat_report",
    "render_cluster_panel",
    "render_net_panel",
    "render_slo_panel",
    "render_top",
    "rule_weights",
]

#: Schema version of the heat report JSON.
HEAT_REPORT_VERSION = 1


@dataclass
class GroupHeat:
    """Tallies for one group index (or the pseudo-stages ``d``/``catch_all``)."""

    probes: int = 0
    candidates: int = 0
    fp_failures: int = 0
    hits: int = 0

    def merge(self, other: "GroupHeat") -> None:
        self.probes += other.probes
        self.candidates += other.candidates
        self.fp_failures += other.fp_failures
        self.hits += other.hits

    @property
    def fp_rate(self) -> float:
        """Fraction of produced candidates killed by the FP check."""
        return self.fp_failures / self.candidates if self.candidates else 0.0


class HeatProfiler:
    """Sampled per-rule and per-group hit profiler (thread-safe).

    One profiler instance is shared by every thread-mode shard replica
    (recording takes the profiler's own lock, in batch-sized aggregates);
    process workers build their own and ship drained state back through
    :class:`~repro.runtime.telemetry.TelemetryDelta`.
    """

    def __init__(self, sample_period: int = 1) -> None:
        if sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        self.sample_period = sample_period
        self._lock = threading.Lock()
        self._rule_hits: Dict[int, int] = {}
        self._groups: Dict[str, GroupHeat] = {}
        self._offset = 0  # stride phase so sampling is uniform over batches
        self.sampled_packets = 0
        self.seen_packets = 0

    # ------------------------------------------------------------------
    # Recording (hot path — called once per batch, not per packet)
    # ------------------------------------------------------------------
    def _stride(self, n: int) -> Tuple[int, int]:
        """Consume ``n`` packets from the sampling stride; returns the
        (start offset into this batch, period)."""
        period = self.sample_period
        with self._lock:
            start = (-self._offset) % period
            self._offset = (self._offset + n) % period
            self.seen_packets += n
        return start, period

    def record_rules(self, winners: Sequence[int]) -> None:
        """Tally winning body-rule indices for one batch (numpy array or
        any int sequence); applies the sampling stride."""
        arr = np.asarray(winners)
        if arr.size == 0:
            return
        start, period = self._stride(int(arr.size))
        sample = arr[start::period] if period > 1 else arr
        if sample.size == 0:
            return
        ids, counts = np.unique(sample, return_counts=True)
        with self._lock:
            self.sampled_packets += int(sample.size)
            hits = self._rule_hits
            for rule, count in zip(ids.tolist(), counts.tolist()):
                hits[rule] = hits.get(rule, 0) + count

    def record_group(
        self,
        key: str,
        probes: int = 0,
        candidates: int = 0,
        fp_failures: int = 0,
        hits: int = 0,
    ) -> None:
        """Fold one batch's aggregate tallies for a group/stage in.

        Group tallies are exact (not sampled): they are already aggregate
        per batch, so the per-packet sampling argument does not apply.
        """
        with self._lock:
            heat = self._groups.get(key)
            if heat is None:
                heat = self._groups[key] = GroupHeat()
            heat.probes += probes
            heat.candidates += candidates
            heat.fp_failures += fp_failures
            heat.hits += hits

    # ------------------------------------------------------------------
    # Merging (shard fold-back)
    # ------------------------------------------------------------------
    def drain(self) -> Dict[str, object]:
        """Atomically remove and return recorded state (picklable)."""
        with self._lock:
            state = {
                "rule_hits": self._rule_hits,
                "groups": self._groups,
                "sampled_packets": self.sampled_packets,
                "seen_packets": self.seen_packets,
            }
            self._rule_hits = {}
            self._groups = {}
            self.sampled_packets = 0
            self.seen_packets = 0
        return state

    def absorb(self, state: Mapping[str, object]) -> None:
        """Fold a drained state back in (inverse of :meth:`drain`)."""
        with self._lock:
            for rule, count in state["rule_hits"].items():
                self._rule_hits[rule] = self._rule_hits.get(rule, 0) + count
            for key, heat in state["groups"].items():
                mine = self._groups.get(key)
                if mine is None:
                    self._groups[key] = GroupHeat(
                        heat.probes, heat.candidates,
                        heat.fp_failures, heat.hits,
                    )
                else:
                    mine.merge(heat)
            self.sampled_packets += state["sampled_packets"]
            self.seen_packets += state["seen_packets"]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def top_rules(self, k: int = 10) -> List[Tuple[int, int]]:
        """The ``k`` hottest (rule index, sampled hits), hottest first."""
        with self._lock:
            items = sorted(
                self._rule_hits.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return items[:k]

    def report(self) -> Dict[str, object]:
        """The heat report: a JSON-serializable dict (schema below).

        ``estimated_hits`` scales sampled counts by ``sample_period`` so
        consumers can compare against unsampled counters::

            {"version": 1, "sample_period": k,
             "seen_packets": N, "sampled_packets": n,
             "rules": [{"rule": idx, "hits": sampled, "estimated_hits": ...}],
             "groups": {key: {"probes": ..., "candidates": ...,
                              "fp_failures": ..., "fp_rate": ...,
                              "hits": ...}}}
        """
        period = self.sample_period
        with self._lock:
            rules = [
                {
                    "rule": rule,
                    "hits": count,
                    "estimated_hits": count * period,
                }
                for rule, count in sorted(
                    self._rule_hits.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
            groups = {
                key: {
                    "probes": heat.probes,
                    "candidates": heat.candidates,
                    "fp_failures": heat.fp_failures,
                    "fp_rate": heat.fp_rate,
                    "hits": heat.hits,
                }
                for key, heat in sorted(self._groups.items())
            }
            return {
                "version": HEAT_REPORT_VERSION,
                "sample_period": period,
                "seen_packets": self.seen_packets,
                "sampled_packets": self.sampled_packets,
                "rules": rules,
                "groups": groups,
            }

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """JSON heat report; written to ``path`` when given."""
        text = json.dumps(self.report(), indent=indent)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
                handle.write("\n")
        return text


def load_heat_report(path: str) -> Dict[str, object]:
    """Read a heat report written by :meth:`HeatProfiler.to_json`."""
    with open(path) as handle:
        report = json.load(handle)
    version = report.get("version")
    if version != HEAT_REPORT_VERSION:
        raise ValueError(
            f"unsupported heat report version {version!r} in {path}"
        )
    return report


def rule_weights(report: Mapping[str, object]) -> Dict[int, int]:
    """Rule index -> estimated hit count, the shape
    :class:`~repro.saxpac.cache.ClassificationCache` accepts as ``heat``."""
    return {
        int(entry["rule"]): int(entry["estimated_hits"])
        for entry in report["rules"]
    }


def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_top(
    report: Mapping[str, object],
    latencies: Optional[Mapping[str, object]] = None,
    k: int = 10,
    rules: Optional[Sequence[object]] = None,
    counters: Optional[Mapping[str, float]] = None,
    gauges: Optional[Mapping[str, float]] = None,
    elapsed_s: Optional[float] = None,
) -> str:
    """Text dashboard of the hottest rules, groups and stages.

    ``latencies`` is the ``latencies`` mapping of a telemetry snapshot
    (stage -> :class:`~repro.runtime.telemetry.HistogramStats`), rendered
    as the "hottest stages" section; ``rules`` (the classifier's rule
    list) adds a short repr per hot rule when given.  ``counters``
    (telemetry counter mapping) adds the wire panel when ``net.*``
    counters are present — req/s needs ``elapsed_s`` — and ``gauges``
    adds the SLO burn panel when ``slo.*`` gauges are present.
    """
    lines: List[str] = []
    period = report.get("sample_period", 1)
    seen = report.get("seen_packets", 0)
    sampled = report.get("sampled_packets", 0)
    lines.append(
        f"heat: {seen:,} packets seen, {sampled:,} sampled "
        f"(period={period})"
    )
    top = list(report["rules"])[:k]
    if top:
        lines.append(f"  hottest rules (top {len(top)}):")
        total = sum(entry["hits"] for entry in report["rules"]) or 1
        for entry in top:
            share = entry["hits"] / total
            label = f"rule {entry['rule']:>6}"
            if rules is not None and 0 <= entry["rule"] < len(rules):
                text = str(rules[entry["rule"]])
                if len(text) > 40:
                    text = text[:37] + "..."
                label = f"{label}  {text}"
            lines.append(
                f"    {label:<50} {entry['estimated_hits']:>10,} "
                f"{_bar(share)} {share:6.1%}"
            )
    groups = report.get("groups", {})
    if groups:
        lines.append("  hottest groups:")
        ordered = sorted(
            groups.items(), key=lambda kv: -kv[1]["hits"]
        )
        for key, stats in ordered[:k]:
            lines.append(
                f"    {key:<28} hits={stats['hits']:<10,} "
                f"probes={stats['probes']:<10,} "
                f"fp_rate={stats['fp_rate']:.2%}"
            )
    if latencies:
        lines.append("  hottest stages (by total time):")
        ordered_stages = sorted(
            latencies.items(), key=lambda kv: -kv[1].total
        )
        for stage, stats in ordered_stages[:k]:
            mean = stats.total / stats.count if stats.count else 0.0
            lines.append(
                f"    {stage:<28} total={stats.total:8.3f}s "
                f"n={stats.count:<9,} mean={mean * 1e6:9.1f}us "
                f"p99={stats.p99 * 1e6:9.1f}us"
            )
    net_panel = render_net_panel(counters, gauges, elapsed_s=elapsed_s)
    if net_panel:
        lines.append(net_panel)
    slo_panel = render_slo_panel(gauges)
    if slo_panel:
        lines.append(slo_panel)
    return "\n".join(lines)


def render_net_panel(
    counters: Optional[Mapping[str, float]],
    gauges: Optional[Mapping[str, float]] = None,
    elapsed_s: Optional[float] = None,
) -> str:
    """The ``repro top`` wire panel: req/s, inflight, coalesce ratio,
    sheds, drains.  Empty string when no wire traffic has been seen."""
    if not counters or not counters.get("net.requests"):
        return ""
    requests = counters.get("net.requests", 0)
    lookups = counters.get("net.lookups", 0)
    coalesce = requests / lookups if lookups else 0.0
    rate = (
        f"{requests / elapsed_s:>10,.0f} req/s"
        if elapsed_s
        else f"{requests:>10,} reqs"
    )
    inflight = int((gauges or {}).get("net.inflight", 0))
    lines = [
        "  wire:",
        f"    {rate}  inflight={inflight}  "
        f"coalesce={coalesce:.2f}x ({lookups:,} lookups)",
        f"    shed={int(counters.get('net.shed', 0)):,}  "
        f"errors={int(counters.get('net.lookup_errors', 0)):,}  "
        f"protocol_errors={int(counters.get('net.protocol_errors', 0)):,}  "
        f"drains={int(counters.get('net.drains', 0)):,}"
        f"/{int(counters.get('net.dirty_drains', 0)):,} dirty",
    ]
    return "\n".join(lines)


def render_cluster_panel(
    stats: Optional[Mapping[str, float]],
    replicas: Optional[Mapping[str, Mapping[str, object]]] = None,
    elapsed_s: Optional[float] = None,
) -> str:
    """The ``repro cluster`` panel: replica-set throughput, reroute and
    failover tallies, plus one line per replica (alive flag + engine
    generation).  Empty string when the set has served nothing."""
    if not stats or not stats.get("cluster.requests"):
        return ""
    requests = stats.get("cluster.requests", 0)
    rate = (
        f"{requests / elapsed_s:>10,.0f} req/s"
        if elapsed_s
        else f"{requests:>10,} reqs"
    )
    lines = [
        "  cluster:",
        f"    {rate}  rerouted={int(stats.get('cluster.rerouted', 0)):,}  "
        f"deaths={int(stats.get('cluster.replica_deaths', 0)):,}  "
        f"rejoins={int(stats.get('cluster.rejoins', 0)):,}",
        f"    shed_reroutes={int(stats.get('cluster.shed_reroutes', 0)):,}  "
        f"drain_reroutes={int(stats.get('cluster.drain_reroutes', 0)):,}  "
        f"stalled_rounds={int(stats.get('cluster.stalled_rounds', 0)):,}",
    ]
    for name in sorted(replicas or {}):
        info = replicas[name]
        alive = info.get("alive", True)
        generation = info.get("generation")
        lines.append(
            f"    {name:<12} "
            f"{'up  ' if alive else 'DOWN'}  "
            f"gen={'?' if generation is None else generation}"
        )
    return "\n".join(lines)


def render_slo_panel(gauges: Optional[Mapping[str, float]]) -> str:
    """The ``repro top`` SLO burn panel: per-SLO multi-window burn rates
    with a FAST-BURN marker.  Empty string when no ``slo.*`` gauges."""
    if not gauges:
        return ""
    names = sorted(
        {
            key.split(".")[1]
            for key in gauges
            if key.startswith("slo.") and key.count(".") >= 2
        }
    )
    if not names:
        return ""
    lines = ["  slo burn (x budget):"]
    for name in names:
        parts = []
        for objective in ("availability", "latency"):
            rates = [
                f"{window}={gauges.get(f'slo.{name}.{objective}_burn_{window}', 0.0):.2f}"
                for window in ("5m", "1h")
                if f"slo.{name}.{objective}_burn_{window}" in gauges
            ]
            if rates:
                parts.append(f"{objective} " + " ".join(rates))
        marker = (
            "  << FAST BURN"
            if gauges.get(f"slo.{name}.fast_burn", 0.0)
            else ""
        )
        lines.append(f"    {name:<12} " + "   ".join(parts) + marker)
    return "\n".join(lines)
