"""Prometheus text exposition of a telemetry snapshot.

Renders every counter and latency histogram of a
:class:`~repro.runtime.telemetry.TelemetrySnapshot` in the Prometheus
text format (version 0.0.4):

* counter ``engine.group_probes`` becomes
  ``saxpac_engine_group_probes_total``;
* histogram stage ``engine.match_batch`` becomes
  ``saxpac_engine_match_batch_latency_seconds`` with cumulative ``le``
  buckets derived from the log2 microsecond buckets (bucket ``i`` ends at
  ``2**i / 1e6`` seconds), a ``+Inf`` bucket, and consistent ``_count`` /
  ``_sum`` series.

Only the stdlib is used — no Prometheus client dependency — which is why
the histogram exposition is derived rather than recorded natively.

Stage-waterfall histograms (see :mod:`repro.obs.stages`) render with
OpenMetrics-style *exemplars*: a bucket that recently absorbed an
observation carries ``# {trace_id="..."} <bound>`` after its value, so a
fat bucket links straight to the flight-recorder trace that landed
there.  :func:`parse_exposition` strips exemplars before parsing.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional

from ..runtime.telemetry import (
    HistogramStats,
    TelemetrySnapshot,
    bucket_bound,
)

__all__ = [
    "parse_exposition",
    "render_prometheus",
    "render_stage_histograms",
    "sanitize_metric_name",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_PREFIX = "saxpac"

#: Curated HELP text for the health/degradation gauges (everything else
#: gets a generic line); dashboards alert on these, so the exposition
#: should say what the values mean.
_GAUGE_HELP = {
    "runtime.health": (
        "Degradation ladder state: 0=healthy 1=degraded 2=linear-fallback."
    ),
    "runtime.shed": "Batches rejected at the in-flight watermark.",
    "runtime.retries": "Shard chunk retries after worker errors.",
    "runtime.worker_respawns": (
        "Shard pools respawned after a crash or deadline miss."
    ),
    "runtime.inflight": "Batches currently in flight.",
    "runtime.quarantined": (
        "1 while a failed rebuild is quarantined and the previous engine "
        "keeps serving."
    ),
    "net.inflight": "Wire requests accepted but not yet answered.",
}

#: Regex-curated HELP for dynamically-named gauge families (SLO burn
#: rates carry the spec name inside the metric name).
_GAUGE_PATTERN_HELP = (
    (
        re.compile(r"^slo\.[\w-]+\.availability_burn_\w+$"),
        "Availability error-budget burn rate over the named window "
        "(1.0 spends the budget exactly at the objective's rate).",
    ),
    (
        re.compile(r"^slo\.[\w-]+\.latency_burn_\w+$"),
        "Latency error-budget burn rate over the named window.",
    ),
    (
        re.compile(r"^slo\.[\w-]+\.fast_burn$"),
        "1 while this SLO burns past the fast-burn threshold on every "
        "window (the page-now condition; also degrades /healthz).",
    ),
)

#: Curated HELP text for the wire-layer counters (dashboards watch the
#: coalescing ratio net_lookups_total / net_requests_total and the
#: error/shed counters, so say exactly what each one counts).
_COUNTER_HELP = {
    "net.connections": "TCP connections accepted by the wire server.",
    "net.disconnects": "TCP connections closed (any reason).",
    "net.requests": "Match requests accepted off the wire.",
    "net.request_packets": "Packets carried by accepted match requests.",
    "net.responses": "Match responses written back to clients.",
    "net.lookups": (
        "Coalesced server-side lookups; under pipelining this stays "
        "below net_requests_total — that gap is the micro-batcher "
        "working."
    ),
    "net.lookup_packets": "Packets classified by coalesced lookups.",
    "net.coalesced_requests": (
        "Requests merged into an already-forming batch (beyond the "
        "first of each lookup)."
    ),
    "net.shed": (
        "Requests answered with a retryable SHED error at the runtime's "
        "in-flight watermark."
    ),
    "net.lookup_errors": "Requests answered with an INTERNAL error.",
    "net.protocol_errors": (
        "Malformed frames or payloads answered with a PROTOCOL error."
    ),
    "net.chaos_disconnects": (
        "Connections torn down by the net.conn chaos site."
    ),
    "net.corrupted_frames": (
        "Response frames garbled by the net.conn chaos site."
    ),
    "net.drains": "Graceful drains started.",
    "net.dirty_drains": "Drains that timed out with requests in flight.",
    "net.drain_rejects": "Requests refused because the server was draining.",
    "net.pings": "PING frames answered.",
    "net.quiesces": (
        "Temporary drains (rolling-swap leg): reject new requests, keep "
        "the listener up, resume afterwards."
    ),
    "net.resumes": "Replicas returned to service after a quiesce.",
    "cluster.requests": "Requests answered through the replica set.",
    "cluster.rerouted": (
        "Requests re-sent to a surviving replica after their first "
        "replica failed, shed, or was draining."
    ),
    "cluster.shed_reroutes": (
        "Replica-set chunks rerouted because a replica answered SHED "
        "past the client's own retry budget."
    ),
    "cluster.drain_reroutes": (
        "Replica-set chunks rerouted off a quiescing (DRAINING) replica."
    ),
    "cluster.internal_reroutes": (
        "Replica-set chunks rerouted after an INTERNAL error answer."
    ),
    "cluster.replica_deaths": (
        "Replicas removed from routing after transport failure."
    ),
    "cluster.rejoins": "Replicas brought back into routing.",
    "cluster.generation_polls": (
        "Explicit engine-generation probes (stamped PINGs) sent to "
        "replicas."
    ),
    "cluster.stalled_rounds": (
        "Routing rounds that made no progress (all eligible replicas "
        "rejected their share)."
    ),
}

def _counter_help(counter: str) -> str:
    return _COUNTER_HELP.get(counter, f"Pipeline counter {counter}.")


def _gauge_help(gauge: str) -> str:
    help_text = _GAUGE_HELP.get(gauge)
    if help_text is not None:
        return help_text
    for pattern, text in _GAUGE_PATTERN_HELP:
        if pattern.match(gauge):
            return text
    return f"Runtime gauge {gauge}."

#: Curated HELP for the wire-layer latency histograms.
_HISTOGRAM_HELP = {
    "net.request": (
        "Wire request latency: frame accepted to response written "
        "(includes coalescer queueing)."
    ),
    "net.batch": "Coalesced lookup latency (the vectorized match_batch).",
}

#: Curated HELP for the per-stage waterfall histograms (suffix keyed;
#: the family name is saxpac_stage_<stage>_seconds).
_STAGE_HELP = {
    "decode": "Wire frame decode time per request.",
    "queue_wait": (
        "Time a request sat in the coalescer queue before being picked "
        "up (a lookup was occupying the executor)."
    ),
    "coalesce_wait": (
        "Time between pickup and lookup start (the batch held the door "
        "for stragglers)."
    ),
    "lookup": "Coalesced classification time attributed to the request.",
    "encode": "Response frame encode time per request.",
    "write": "Socket write + drain time per request.",
}


def sanitize_metric_name(name: str, suffix: str = "") -> str:
    """Dotted counter/stage name -> legal Prometheus metric name."""
    base = _NAME_RE.sub("_", name.strip())
    base = re.sub(r"__+", "_", base).strip("_")
    return f"{_PREFIX}_{base}{suffix}"


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats repr'd."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _format_labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(val))}"'
        for key, val in sorted(labels.items())
    )
    return "{" + inner + "}"


def _histogram_lines(
    stage: str, stats: HistogramStats, labels: Optional[Mapping[str, str]]
) -> List[str]:
    name = sanitize_metric_name(stage, "_latency_seconds")
    help_text = _HISTOGRAM_HELP.get(
        stage, f"Latency of pipeline stage {stage} (log2 buckets)."
    )
    lines = [
        f"# HELP {name} {help_text}",
        f"# TYPE {name} histogram",
    ]
    cumulative = 0
    for index, count in enumerate(stats.buckets):
        cumulative += count
        bound = bucket_bound(index)
        bucket_labels = dict(labels or {})
        bucket_labels["le"] = repr(bound)
        lines.append(
            f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
        )
    inf_labels = dict(labels or {})
    inf_labels["le"] = "+Inf"
    lines.append(
        f"{name}_bucket{_format_labels(inf_labels)} {stats.count}"
    )
    label_text = _format_labels(labels)
    lines.append(f"{name}_count{label_text} {stats.count}")
    lines.append(f"{name}_sum{label_text} {repr(float(stats.total))}")
    return lines


def render_stage_histograms(
    stage_stats: Mapping[str, Mapping[str, object]],
    labels: Optional[Mapping[str, str]] = None,
) -> List[str]:
    """Exposition lines for a stage-waterfall snapshot
    (:meth:`~repro.obs.stages.StageWaterfall.stage_stats`): one
    ``saxpac_stage_<name>_seconds`` histogram per stage, with exemplar
    trace ids on buckets that recently absorbed an observation.
    """
    lines: List[str] = []
    for stage in sorted(stage_stats):
        stats = stage_stats[stage]
        name = sanitize_metric_name(f"stage.{stage}", "_seconds")
        help_text = _STAGE_HELP.get(
            stage, f"Per-request waterfall stage {stage}."
        )
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} histogram")
        exemplars = stats.get("exemplars") or {}
        cumulative = 0
        buckets = stats["buckets"]
        last = len(buckets)
        while last > 0 and buckets[last - 1] == 0:
            last -= 1
        for index in range(last):
            cumulative += buckets[index]
            bound = bucket_bound(index)
            bucket_labels = dict(labels or {})
            bucket_labels["le"] = repr(bound)
            line = (
                f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
            )
            trace_id = exemplars.get(index)
            if trace_id:
                line += f' # {{trace_id="{trace_id:x}"}} {repr(bound)}'
            lines.append(line)
        inf_labels = dict(labels or {})
        inf_labels["le"] = "+Inf"
        count = stats["count"]
        lines.append(f"{name}_bucket{_format_labels(inf_labels)} {count}")
        label_text = _format_labels(labels)
        lines.append(f"{name}_count{label_text} {count}")
        lines.append(
            f"{name}_sum{label_text} {repr(float(stats['sum_s']))}"
        )
    return lines


def render_prometheus(
    snapshot: TelemetrySnapshot,
    labels: Optional[Mapping[str, str]] = None,
    extra_gauges: Optional[Mapping[str, float]] = None,
    stage_stats: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> str:
    """Render a snapshot as Prometheus text exposition.

    ``labels`` (e.g. ``{"instance": "shard0"}``) ride on every sample;
    ``extra_gauges`` lets the caller add point-in-time gauges (engine
    generation, degraded flag, ...) that are not telemetry counters;
    ``stage_stats`` adds the per-request stage-waterfall histograms
    (with exemplar trace ids) when a wire server records them.
    """
    lines: List[str] = []
    label_text = _format_labels(labels)
    for counter in sorted(snapshot.counters):
        name = sanitize_metric_name(counter, "_total")
        lines.append(f"# HELP {name} {_counter_help(counter)}")
        lines.append(f"# TYPE {name} counter")
        lines.append(
            f"{name}{label_text} {_format_value(snapshot.counters[counter])}"
        )
    for stage in sorted(snapshot.latencies):
        lines.extend(
            _histogram_lines(stage, snapshot.latencies[stage], labels)
        )
    if stage_stats:
        lines.extend(render_stage_histograms(stage_stats, labels))
    for gauge in sorted(extra_gauges or {}):
        name = sanitize_metric_name(gauge)
        lines.append(f"# HELP {name} {_gauge_help(gauge)}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(
            f"{name}{label_text} {_format_value(extra_gauges[gauge])}"
        )
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> Dict[str, Dict[str, float]]:
    """Minimal exposition parser (tests/round-trips, not a full client):
    metric name -> {label-string or "": value}.  Exemplar suffixes
    (``... # {trace_id="..."} v``) are stripped before parsing."""
    out: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        line = line.split(" # ", 1)[0].rstrip()
        head, _, value = line.rpartition(" ")
        if "{" in head:
            name, _, rest = head.partition("{")
            labels = "{" + rest
        else:
            name, labels = head, ""
        out.setdefault(name, {})[labels] = float(value)
    return out
