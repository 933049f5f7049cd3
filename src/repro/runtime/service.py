"""The serving facade: hot-swappable engine + batching + sharding +
telemetry, behind one object.

:class:`RuntimeService` is what ``python -m repro runtime`` drives: it
owns a :class:`~repro.runtime.swap.HotSwapRuntime` (so rules can change
under live traffic), optionally fans batches out over a
:class:`~repro.runtime.shard.ShardedRuntime`, and records everything into
one :class:`~repro.runtime.telemetry.Telemetry` instance.

Observability rides on the recorder: hand the service a recorder built by
:meth:`repro.obs.Observability.create` to get span tracing and heat
profiling, and call :meth:`RuntimeService.serve_metrics` to expose
``/metrics`` (Prometheus text), ``/healthz`` and ``/snapshot`` over HTTP
for the service's lifetime.

**Failure model.**  The service never lets a fast-path failure escape to
the caller as a wrong answer or a crash:

* a :class:`~repro.runtime.health.HealthMonitor` aggregates failure
  signals (shard deadline misses, worker crashes, quarantined swap
  builds, corrupted reports) into the ``healthy -> degraded ->
  linear-fallback`` ladder; in the ``linear-fallback`` state every batch
  is served by the always-correct vectorized linear scan while the fast
  path is probed every ``probe_every`` batches to drive recovery;
* a batch whose fast path raises is re-served through the linear scan
  (``runtime.batch_fallbacks``) — same answers, slower;
* when more than ``shed_watermark`` batches are in flight the service
  sheds load (:class:`LoadShedError`, counted in ``runtime.shed``)
  instead of building an unbounded queue;
* fault injection for all of the above is driven by a
  :mod:`repro.chaos` plan through the ``injector`` hook, a no-op unless
  armed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..chaos.injector import NULL_INJECTOR
from ..core.classifier import Classifier, MatchResult
from ..core.rule import Rule
from ..saxpac.config import EngineConfig
from .batch import box_results, iter_batches, linear_match_indices
from .health import HealthMonitor, HealthState
from .shard import ShardedRuntime, check_shard_mode
from .swap import HotSwapRuntime
from .telemetry import Telemetry, TelemetrySnapshot, render_text

__all__ = [
    "LoadShedError",
    "RunReport",
    "RuntimeConfig",
    "RuntimeService",
]


class LoadShedError(RuntimeError):
    """The in-flight batch queue passed the watermark; the batch was
    rejected on purpose (retry later / upstream backpressure)."""


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the serving pipeline (engine knobs ride in ``engine``).

    Failure-handling knobs: ``deadline_ms`` bounds each sharded batch
    (None = wait forever), ``max_retries`` bounds per-chunk retries,
    ``shed_watermark`` caps concurrent in-flight batches (None = never
    shed), ``fallback_after``/``recover_after`` shape the health ladder
    and ``probe_every`` sets how often the linear-fallback state retries
    the fast path.
    """

    batch_size: int = 1024
    num_shards: int = 1
    shard_mode: str = "thread"
    background_rebuild: bool = False
    engine: EngineConfig = field(default_factory=EngineConfig)
    deadline_ms: Optional[float] = None
    max_retries: int = 2
    shed_watermark: Optional[int] = None
    fallback_after: int = 3
    recover_after: int = 2
    probe_every: int = 8

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        check_shard_mode(self.shard_mode)
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.shed_watermark is not None and self.shed_watermark < 1:
            raise ValueError("shed_watermark must be >= 1")
        if self.probe_every < 1:
            raise ValueError("probe_every must be >= 1")


@dataclass(frozen=True)
class RunReport:
    """Outcome of one trace replay."""

    packets: int
    seconds: float
    telemetry: TelemetrySnapshot

    @property
    def packets_per_second(self) -> float:
        """Throughput over the whole replay."""
        if self.seconds <= 0:
            return float("inf")
        return self.packets / self.seconds

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable summary."""
        return {
            "packets": self.packets,
            "seconds": self.seconds,
            "packets_per_second": self.packets_per_second,
            "telemetry": self.telemetry.as_dict(),
        }


class RuntimeService:
    """Batched, sharded, hot-swappable classification service."""

    def __init__(
        self,
        classifier: Classifier,
        config: Optional[RuntimeConfig] = None,
        recorder: Optional[Telemetry] = None,
        injector=None,
    ) -> None:
        self.config = config or RuntimeConfig()
        self.telemetry = recorder if recorder is not None else Telemetry()
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.health = HealthMonitor(
            self.telemetry,
            fallback_after=self.config.fallback_after,
            recover_after=self.config.recover_after,
        )
        self.swap = HotSwapRuntime(
            classifier,
            config=self.config.engine,
            recorder=self.telemetry,
            background=self.config.background_rebuild,
            injector=self.injector,
            health=self.health,
        )
        self.metrics_server = None
        #: Set by repro.net.NetServer when one fronts this service, so
        #: wire gauges ride the same /metrics exposition.
        self.net = None
        #: Optional repro.obs.slo.SLOEngine; when set, burn-rate gauges
        #: ride /metrics and a fast burn degrades /healthz.
        self.slo = None
        if self.injector.enabled and self.telemetry.tracer is not None:
            # Chaos injections become trace events on the active span, so
            # a flight-recorder entry shows *which* fault fired inside it.
            # The tracer rides only this in-process reference — the
            # injector's __reduce__/__deepcopy__ paths never carry it to
            # shard workers.
            self.injector.tracer = self.telemetry.tracer
        self.shards: Optional[ShardedRuntime] = None
        if self.config.num_shards > 1:
            # Shards read the swap engine once per batch, so hot swaps
            # reach them: thread replicas share the engine, shm workers
            # get one columnar snapshot per swap instead of a pool
            # rebuild.
            self.shards = ShardedRuntime(
                engine_source=lambda: self.swap.engine,
                num_shards=self.config.num_shards,
                mode=self.config.shard_mode,
                recorder=self.telemetry,
                deadline_ms=self.config.deadline_ms,
                max_retries=self.config.max_retries,
                on_error="fallback",
                injector=self.injector,
                health=self.health,
            )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._fallback_probe_counter = 0

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def serving_classifier(self) -> Classifier:
        """The classifier whose linear reference equals what the service
        answers right now (stale under swap quarantine, by design)."""
        return self.swap.serving_classifier()

    def _linear_indices(self, headers: Sequence[Sequence[int]]) -> tuple:
        """(indices, classifier): the always-correct slow path over the
        serving snapshot."""
        classifier = self.serving_classifier()
        return linear_match_indices(classifier, headers), classifier

    def _fast_indices(self, headers: Sequence[Sequence[int]]) -> tuple:
        """(indices, classifier, clean) via the shards or the swap
        engine, read once for the batch; ``classifier`` is the rule set
        the indices point into and ``clean`` is False when shard-level
        faults were absorbed along the way."""
        shards = self.shards
        if shards is not None:
            indices, classifier = shards.match_indices_with_classifier(
                headers
            )
            return indices, classifier, shards.last_batch_faults == 0
        engine = self.swap.engine
        return engine.match_batch_indices(headers), engine.classifier, True

    def match_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """One batch through the pipeline (sharded when configured).

        Never crashes on a fast-path failure and never returns a wrong
        answer: failures degrade onto the vectorized linear scan over the
        serving snapshot.  Raises :class:`LoadShedError` — and only that
        — when the in-flight watermark is hit.
        """
        indices, classifier = self._serve(headers)
        return box_results(classifier, indices)

    def match_indices(self, headers: Sequence[Sequence[int]]) -> np.ndarray:
        """Winning rule indices for one batch as an int64 ndarray in
        input order — :meth:`match_batch` without the
        :class:`MatchResult` boxing, same guard ladder, same shed
        behavior.  This is what :class:`~repro.net.NetServer` encodes
        straight onto the wire."""
        return self._serve(headers)[0]

    def _serve(self, headers) -> tuple:
        watermark = self.config.shed_watermark
        with self._inflight_lock:
            if watermark is not None and self._inflight >= watermark:
                self.telemetry.incr("runtime.shed")
                raise LoadShedError(
                    f"{self._inflight} batches in flight >= watermark "
                    f"{watermark}"
                )
            self._inflight += 1
        try:
            return self._serve_guarded(headers)
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _serve_guarded(self, headers) -> tuple:
        """The guard ladder around one batch; returns ``(indices,
        classifier)`` with the indices pointing into ``classifier``."""
        start = time.perf_counter()
        telemetry = self.telemetry
        with telemetry.span("runtime.batch", batch=len(headers)):
            served = None
            clean = True
            fast_served = False
            faulted = False
            if self.injector.enabled:
                try:
                    self.injector.fire("service.batch", batch=len(headers))
                except Exception:
                    faulted = True
            if not faulted and self.health.state is HealthState.LINEAR_FALLBACK:
                # Deep degradation: serve linearly, but probe the fast
                # path periodically so recovery is automatic.
                self._fallback_probe_counter += 1
                if self._fallback_probe_counter % self.config.probe_every:
                    telemetry.incr("runtime.fallback_batches")
                    served = self._linear_indices(headers)
                else:
                    telemetry.incr("runtime.fallback_probes")
            if served is None and not faulted:
                try:
                    indices, classifier, clean = self._fast_indices(headers)
                    served = (indices, classifier)
                    fast_served = True
                except LoadShedError:
                    raise
                except Exception:
                    faulted = True
            if faulted:
                self.health.record_failure("service.batch")
                telemetry.incr("runtime.batch_fallbacks")
                served = self._linear_indices(headers)
            elif fast_served and clean:
                # Only a *proven* fast-path batch counts toward recovery;
                # linear-fallback serving must not step the ladder down.
                self.health.record_success("service.batch")
        telemetry.incr("runtime.batches")
        telemetry.incr("runtime.packets", len(headers))
        telemetry.observe("runtime.batch", time.perf_counter() - start)
        return served

    def run_trace(self, trace: Sequence[Sequence[int]]) -> RunReport:
        """Replay a whole trace in ``batch_size`` batches."""
        start = time.perf_counter()
        for batch in iter_batches(trace, self.config.batch_size):
            self.match_indices(batch)
        elapsed = time.perf_counter() - start
        return RunReport(
            packets=len(trace),
            seconds=elapsed,
            telemetry=self.snapshot(),
        )

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def insert(self, rule: Rule):
        """Hot-insert a rule (serves after the next swap)."""
        return self.swap.insert(rule)

    def remove(self, rule_id: int) -> None:
        """Hot-remove a rule by id."""
        self.swap.remove(rule_id)

    def modify(self, rule_id: int, rule: Rule):
        """Hot-modify a rule in place."""
        return self.swap.modify(rule_id, rule)

    def snapshot(self) -> TelemetrySnapshot:
        """Consistent telemetry snapshot with per-shard recordings folded
        back in first — this is what ``/metrics`` scrapes see."""
        if self.shards is not None:
            self.shards.collect()
        return self.telemetry.snapshot()

    def report_text(self) -> str:
        """Human-readable telemetry report."""
        return render_text(self.snapshot())

    def engine_report(self):
        """The serving engine's :class:`~repro.saxpac.engine
        .EngineReport`, validated — None when the engine has no report
        (linear fallback serving) or the report fails its sanity
        invariants (counted in ``runtime.report_corruptions`` and fed to
        the health monitor; a chaos ``engine.report`` spec forces
        this)."""
        report_fn = getattr(self.swap.engine, "report", None)
        if report_fn is None:
            return None
        report = report_fn()
        if not report.is_sane():
            self.telemetry.incr("runtime.report_corruptions")
            self.health.record_failure("engine.report")
            return None
        return report

    # ------------------------------------------------------------------
    # Observability endpoints
    # ------------------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        """Point-in-time gauges for ``/metrics`` and ``/snapshot``."""
        telemetry = self.telemetry
        gauges = {
            "runtime.generation": float(self.swap.generation),
            "runtime.degraded": 1.0 if self.swap.degraded else 0.0,
            "runtime.quarantined": 1.0 if self.swap.quarantined else 0.0,
            "runtime.health": float(self.health.state),
            "runtime.inflight": float(self._inflight),
            "runtime.shed": float(telemetry.counter("runtime.shed")),
            "runtime.retries": float(telemetry.counter("runtime.retries")),
            "runtime.worker_respawns": float(
                telemetry.counter("runtime.worker_respawns")
            ),
            "runtime.rules": float(len(self.swap)),
            "runtime.num_shards": float(self.config.num_shards),
            "runtime.update_log": float(len(self.swap.update_log)),
        }
        if self.net is not None:
            gauges["net.inflight"] = float(self.net.inflight)
        engine = self.swap.engine
        stages = getattr(engine, "build_stages", None)
        if stages is not None:
            # Compile-pipeline visibility: how long the serving engine
            # took to (re)build, stage by stage, and whether the last
            # swap was incremental.
            gauges["build.seconds"] = float(engine.build_seconds)
            gauges["build.incremental"] = (
                1.0 if engine.build_incremental else 0.0
            )
            for name, seconds in stages:
                gauges[f"build.stage.{name}"] = float(seconds)
        if self.slo is not None:
            self.slo.ingest(self.telemetry.snapshot())
            gauges.update(self.slo.gauges())
        return gauges

    def health_payload(self) -> tuple:
        """(healthy, payload) for ``/healthz``: healthy while the health
        ladder sits at the top, the real engine serves, and no SLO is
        fast-burning; 503 with the degradation detail otherwise."""
        state = self.health.state
        degraded = self.swap.degraded
        healthy = state is HealthState.HEALTHY and not degraded
        if healthy:
            status = "ok"
        elif state is HealthState.HEALTHY:
            status = "degraded"  # fallback engine serving, ladder clean
        else:
            status = state.label
        payload = {
            "status": status,
            "health": state.label,
            "quarantined": self.swap.quarantined,
            "generation": self.swap.generation,
            "rules": len(self.swap),
        }
        if self.slo is not None:
            self.slo.ingest(self.telemetry.snapshot())
            burning = self.slo.fast_burning()
            if burning:
                payload["slo_fast_burn"] = burning
                if healthy:
                    healthy = False
                    payload["status"] = "slo-burn"
        return healthy, payload

    # Backwards-compatible alias (pre-health-ladder name).
    health_check = health_payload

    def serve_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Start the HTTP observability endpoint (``/metrics``,
        ``/healthz``, ``/snapshot``); returns the
        :class:`~repro.obs.server.MetricsServer` (its ``.port`` is the
        bound port).  Stopped by :meth:`close`, or call
        ``service.metrics_server.close()`` earlier."""
        if self.metrics_server is not None:
            return self.metrics_server
        from ..obs.server import MetricsServer

        self.metrics_server = MetricsServer(
            snapshot_source=self.snapshot,
            host=host,
            port=port,
            health_source=self.health_payload,
            gauges_source=self.gauges,
            # Late-bound through self.net: a NetServer attached after
            # serve_metrics() still gets its waterfall + flight recorder
            # exposed.
            stages_source=lambda: (
                self.net.stages.stage_stats()
                if self.net is not None and self.net.stages is not None
                else None
            ),
            flight_source=lambda: (
                self.net.flightrec.dump()
                if self.net is not None and self.net.flightrec is not None
                else None
            ),
        )
        return self.metrics_server

    def close(self) -> None:
        """Drain rebuilds, stop the shard pool and the metrics server."""
        self.swap.flush()
        if self.metrics_server is not None:
            self.metrics_server.close()
            self.metrics_server = None
        if self.shards is not None:
            self.shards.close()

    def __enter__(self) -> "RuntimeService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
