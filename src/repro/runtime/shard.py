"""Sharded classification: a worker pool over N engine replicas.

A batch is split into N contiguous chunks, each classified on its own
replica of the engine, and the per-chunk results are merged back in input
order.  Threads are the default (replicas are deep copies, so per-replica
counters stay exact and lock-free); ``mode="shm"`` runs persistent process
workers over a shared-memory packet/result ring
(:mod:`repro.runtime.shm`) with no per-chunk pickling at all — headers are
written once into shared numpy slabs, workers classify in place, and
completion is a slot sequence counter.

Every chunk is classified by the engine's ``match_batch_indices`` and
merged as one int64 index array; :meth:`ShardedRuntime.match_batch` boxes
:class:`MatchResult` objects once, at the API edge, against the
classifier of the engine that served the batch, so results are identical
(by value) to the unsharded path in either mode.

**Failure handling.**  Chunk execution is guarded:

* ``deadline_ms`` bounds each *batch*: a chunk that has not produced a
  result when the batch deadline expires is abandoned, the workers are
  respawned (``runtime.worker_respawns`` — a hung worker would otherwise
  occupy its slot forever), and the chunk is served through the
  always-correct vectorized linear scan (``runtime.chunk_fallbacks``) so
  the caller still gets exact results on time-ish;
* a chunk whose worker *raises* is retried up to ``max_retries`` times
  with linear backoff (``runtime.retries``); persistent errors either
  raise :class:`ShardWorkerError` — carrying the worker-side traceback,
  never a bare pool error — or, under ``on_error="fallback"`` (what
  :class:`~repro.runtime.service.RuntimeService` uses), fall back to the
  linear scan like timeouts do;
* every failure signal lands in the attached
  :class:`~repro.runtime.health.HealthMonitor` (when one is wired) so the
  service's health ladder reflects shard trouble.

Fault injection rides on the same guard: the runtime consults
``injector`` (default :data:`~repro.chaos.NULL_INJECTOR`, a no-op) at the
``shard.worker`` site inside each worker, so a chaos plan can crash,
hang or slow chunks deterministically — see :mod:`repro.chaos`.

**Telemetry fold-back.**  Replicas record into private recorders (a deep
copy cannot share the parent's lock, and a shm worker cannot share its
memory); those recordings used to vanish.  Now every thread replica gets
a fresh :class:`~repro.runtime.telemetry.Telemetry` that shares the
parent's tracer/heat sinks, and its counters flow back via
:meth:`~repro.runtime.telemetry.Telemetry.drain` /
:meth:`~repro.runtime.telemetry.Telemetry.absorb` on
:meth:`ShardedRuntime.collect` (called by the service before every
snapshot, and on close); shm workers build their own full stack and ship
drained deltas back per chunk.  Span context propagates into workers as
an explicit parent :class:`~repro.obs.tracing.SpanContext`, so chunk and
engine spans nest under the caller's batch span across thread and
process boundaries.
"""

from __future__ import annotations

import copy
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..chaos.injector import NULL_INJECTOR
from ..core.classifier import Classifier, MatchResult
from .batch import box_results, linear_match_indices
from .telemetry import NULL_RECORDER, Telemetry

__all__ = [
    "SHARD_MODES",
    "ShardedRuntime",
    "ShardWorkerError",
    "default_num_shards",
]

#: Worker kinds a :class:`ShardedRuntime` (and ``RuntimeConfig.shard_mode``)
#: accepts.
SHARD_MODES = ("thread", "shm")


def check_shard_mode(mode: str) -> None:
    """Raise ``ValueError`` naming the valid modes unless ``mode`` is one."""
    if mode not in SHARD_MODES:
        raise ValueError(
            f"unknown shard mode {mode!r}; expected one of "
            f"{', '.join(SHARD_MODES)}"
        )


def default_num_shards() -> int:
    """Worker count when unspecified: CPUs, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


class ShardWorkerError(RuntimeError):
    """A shard worker failed persistently; carries the worker-side
    traceback (thread or shm worker) so the root cause is never hidden
    behind a bare pool error."""

    def __init__(self, message: str, worker_traceback: str = "") -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback

    def __str__(self) -> str:
        base = super().__str__()
        if self.worker_traceback:
            return f"{base}\n--- worker traceback ---\n{self.worker_traceback}"
        return base


def _rebind_recorder(engine, recorder) -> None:
    """Point an engine replica (and its software sub-engine) at a
    recorder.  Duck-typed: engines without recorder slots are left
    alone."""
    if hasattr(engine, "recorder"):
        engine.recorder = recorder
        software = getattr(engine, "software", None)
        if software is not None and hasattr(software, "recorder"):
            software.recorder = recorder


class ShardedRuntime:
    """Partition batches across engine replicas and merge in order.

    Three construction styles:

    * ``ShardedRuntime(engine=built_engine)`` — thread workers over deep
      copies of an already-built engine (cheapest; the default);
    * ``ShardedRuntime(engine_source=lambda: runtime.engine)`` — workers
      that read the engine once per batch (the RCU read), sharing one
      instance in thread mode; this is the hook
      :class:`~repro.runtime.service.RuntimeService` uses so shards
      observe hot swaps;
    * ``ShardedRuntime(classifier=k, config=cfg)`` — builds the engine
      from a classifier first.

    ``mode="shm"`` composes with the last two styles: process workers
    classify chunks in place in a shared-memory ring
    (:mod:`repro.runtime.shm`), and with an ``engine_source`` the runtime
    detects classifier changes per batch and ships one columnar snapshot
    to the workers (:meth:`~repro.runtime.shm.ShmWorkerPool.ship_swap`),
    so hot swaps work without rebuilding the pool.  Schemas with fields
    wider than 32 bits need ``mode="thread"``.

    Engines must provide ``match_batch_indices(headers)``; that is the
    only call the runtime makes into them.

    Guard knobs: ``deadline_ms`` (per-batch deadline; also what detects a
    dead/hung worker), ``max_retries``/``backoff_s`` (bounded retry of
    erroring chunks), ``on_error`` (``"raise"`` surfaces a
    :class:`ShardWorkerError` after retries; ``"fallback"`` serves the
    chunk via the linear scan instead), ``injector`` (chaos hook,
    production default is a no-op), ``health`` (an optional
    :class:`~repro.runtime.health.HealthMonitor` receiving failure
    signals).
    """

    def __init__(
        self,
        engine=None,
        classifier: Optional[Classifier] = None,
        config=None,
        num_shards: Optional[int] = None,
        mode: str = "thread",
        recorder=None,
        engine_source: Optional[Callable[[], object]] = None,
        deadline_ms: Optional[float] = None,
        max_retries: int = 2,
        backoff_s: float = 0.02,
        on_error: str = "raise",
        injector=None,
        health=None,
        shm_capacity: int = 16384,
        shm_depth: int = 4,
    ) -> None:
        check_shard_mode(mode)
        if on_error not in ("raise", "fallback"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        sources = sum(
            x is not None for x in (engine, engine_source, classifier)
        )
        if sources != 1:
            raise ValueError(
                "pass exactly one of engine / engine_source / classifier"
            )
        if mode == "shm" and engine is not None:
            raise ValueError(
                "shm mode needs a classifier or engine_source (engines "
                "do not cross process boundaries)"
            )
        self.num_shards = (
            default_num_shards() if num_shards is None else num_shards
        )
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.mode = mode
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.deadline_ms = deadline_ms
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.on_error = on_error
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.health = health
        #: Failure signals (timeouts + worker errors) seen while serving
        #: the most recent batch; the service reads this to decide
        #: whether the batch counts as a health success.
        self.last_batch_faults = 0
        #: The most recent persistent worker failure (kept even when
        #: ``on_error="fallback"`` swallowed it), for diagnostics.
        self.last_worker_error: Optional[ShardWorkerError] = None
        self._executor = None
        self._shm_pool = None
        self._shipped_classifier: Optional[Classifier] = None
        self._replicas: List[object] = []
        self._replica_recorders: List[Telemetry] = []
        self._restore: List[Tuple[object, object]] = []
        self._source = engine_source
        if mode == "shm":
            from ..saxpac.config import EngineConfig
            from .shm import ShmWorkerPool

            obs_spec = None
            if self.recorder.enabled:
                heat = self.recorder.heat
                obs_spec = {
                    "tracing": self.recorder.tracer is not None,
                    "heat": heat is not None,
                    "sample_period": (
                        heat.sample_period if heat is not None else 1
                    ),
                }
            plan = (
                copy.deepcopy(self.injector.plan)
                if getattr(self.injector, "plan", None) is not None
                else None
            )
            if classifier is None:
                source_engine = engine_source()
                classifier = source_engine.classifier
                if config is None:
                    config = getattr(source_engine, "config", None)
            self.classifier = classifier
            self._shm_config = config or EngineConfig()
            self._shipped_classifier = classifier
            self._shm_pool = ShmWorkerPool(
                classifier,
                self._shm_config,
                num_workers=self.num_shards,
                capacity=shm_capacity,
                depth=shm_depth,
                obs_spec=obs_spec,
                plan=plan,
            )
            return
        if classifier is not None:
            from ..saxpac.engine import SaxPacEngine

            engine = SaxPacEngine(classifier, config)
        if engine is not None:
            self.classifier = engine.classifier
            self._replicas = [engine] + [
                copy.deepcopy(engine) for _ in range(self.num_shards - 1)
            ]
            if self.recorder.enabled:
                self._bind_replica_recorders()
        else:
            self.classifier = engine_source().classifier
        self._spawn_executor()

    def _spawn_executor(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.num_shards,
            thread_name_prefix="saxpac-shard",
        )

    def _respawn(self) -> None:
        """Replace the workers: hung/dead workers would otherwise occupy
        their slots forever.  Abandoned threads finish (or sleep out) on
        their own.  In shm mode the ring survives — workers are replaced
        in place and their in-flight slots reclaimed
        (``runtime.slots_reclaimed``)."""
        if self._shm_pool is not None:
            reclaimed = self._shm_pool.respawn_all()
            if reclaimed:
                self.recorder.incr("runtime.slots_reclaimed", reclaimed)
        else:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._spawn_executor()
        self.recorder.incr("runtime.worker_respawns")
        tracer = self.recorder.tracer
        if tracer is not None:
            tracer.event("shard.respawn", mode=self.mode)

    def _bind_replica_recorders(self) -> None:
        """Give every replica a private recorder whose data folds back
        into :attr:`recorder` on :meth:`collect`.

        Deep-copied replicas carry a *copy* of the original recorder
        (stale data that must not be double-counted) — and the original
        engine may carry no recorder at all — so all replicas are rebound
        to fresh recorders sharing the parent's tracer/heat sinks (both
        are thread-safe by design); the original engine's binding is
        restored on :meth:`close`.
        """
        parent = self.recorder
        for replica in self._replicas:
            local = Telemetry(tracer=parent.tracer, heat=parent.heat)
            self._restore.append(
                (replica, getattr(replica, "recorder", None))
            )
            _rebind_recorder(replica, local)
            self._replica_recorders.append(local)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _chunks(
        self, headers: Sequence[Sequence[int]]
    ) -> List[Sequence[Sequence[int]]]:
        n = len(headers)
        pieces = min(self.num_shards, n)
        if self._shm_pool is not None:
            # A chunk must fit one ring slot; oversize batches split into
            # more pieces (round-robined over the workers by index).
            capacity = self._shm_pool.capacity
            pieces = max(pieces, -(-n // capacity))
        base, extra = divmod(n, pieces)
        chunks = []
        start = 0
        for i in range(pieces):
            size = base + (1 if i < extra else 0)
            chunks.append(headers[start : start + size])
            start += size
        return chunks

    def _classify_on_replica(
        self, shard: int, engine, chunk, parent_ctx=None
    ) -> np.ndarray:
        injector = self.injector
        if injector.enabled:
            injector.fire("shard.worker", shard=shard)
        recorder = self.recorder
        if recorder.enabled:
            # Pool threads do not inherit the caller's span context, so
            # parent explicitly under the captured batch span.
            with recorder.span(
                "shard.chunk", parent=parent_ctx, shard=shard,
                packets=len(chunk),
            ):
                return engine.match_batch_indices(chunk)
        return engine.match_batch_indices(chunk)

    # -- guarded chunk execution ---------------------------------------
    def _submit(self, index: int, chunk, parent_ctx, source):
        shard = index % self.num_shards
        if self._shm_pool is not None:
            return self._shm_pool.submit(shard, chunk, parent_ctx)
        engine = self._replicas[shard] if self._replicas else source
        return self._executor.submit(
            self._classify_on_replica, shard, engine, chunk, parent_ctx
        )

    def _await(self, handle, timeout_s):
        """Collect one chunk handle: ``("ok", indices)``, ``("err",
        traceback text)`` or ``("timeout", None)``."""
        if self._shm_pool is not None:
            status, value = self._shm_pool.wait(handle, timeout_s)
            if self.recorder.enabled and hasattr(self.recorder, "absorb"):
                for delta in self._shm_pool.take_deltas():
                    self.recorder.absorb(delta)
            return status, value
        try:
            return "ok", handle.result(timeout=timeout_s)
        except FutureTimeoutError:
            return "timeout", None
        except Exception as exc:
            return "err", "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )

    def _record_failure(self, source: str) -> None:
        self.last_batch_faults += 1
        if self.health is not None:
            self.health.record_failure(source)

    def match_indices_with_classifier(
        self, headers: Sequence[Sequence[int]]
    ) -> Tuple[np.ndarray, Classifier]:
        """Winning rule indices for a batch (int64, input order) and the
        classifier they index into.

        The engine is read once per batch, so every chunk — and every
        linear fallback — answers for the same rule set.  Chunks that
        time out against ``deadline_ms`` or whose workers fail
        persistently degrade to the linear reference (or raise, see
        ``on_error``); results are exact either way.
        """
        source = self._source() if self._source is not None else None
        classifier = (
            source.classifier if source is not None else self.classifier
        )
        if not len(headers):
            return np.empty(0, dtype=np.int64), classifier
        if (
            self._shm_pool is not None
            and classifier is not self._shipped_classifier
        ):
            # Hot-swap detection: ship one columnar snapshot when the
            # source engine's rule set changed since the last batch.
            self._shm_pool.ship_swap(classifier, self._shm_config)
            self._shipped_classifier = classifier
            self.classifier = classifier
            self.recorder.incr("runtime.snapshot_ships")
        chunks = self._chunks(headers)
        recorder = self.recorder
        self.last_batch_faults = 0
        parent_ctx = None
        if recorder.enabled and recorder.tracer is not None:
            parent_ctx = recorder.tracer.current_context()
        deadline_s = (
            self.deadline_ms / 1000.0 if self.deadline_ms is not None else None
        )
        started = time.monotonic()
        parts: List[Optional[np.ndarray]] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        attempt = 0
        while pending:
            handles = {
                i: self._submit(i, chunks[i], parent_ctx, source)
                for i in pending
            }
            failed: List[int] = []
            last_traceback = ""
            timed_out = False
            for i, handle in handles.items():
                remaining = None
                if deadline_s is not None:
                    remaining = max(
                        0.005, deadline_s - (time.monotonic() - started)
                    )
                status, value = self._await(handle, remaining)
                if status == "ok":
                    parts[i] = value
                    continue
                if status == "timeout":
                    timed_out = True
                    recorder.incr("runtime.deadline_timeouts")
                    self._record_failure("shard.deadline")
                else:
                    failed.append(i)
                    last_traceback = value or last_traceback
                    recorder.incr("runtime.worker_errors")
                    self._record_failure("shard.worker")
            if timed_out:
                # The deadline is a latency promise: no retries, abandon
                # the hung workers and serve the stragglers linearly.
                self._respawn()
                for i in pending:
                    if parts[i] is None and i not in failed:
                        parts[i] = linear_match_indices(classifier, chunks[i])
                        recorder.incr("runtime.chunk_fallbacks")
            if not failed:
                break
            if attempt >= self.max_retries:
                error = ShardWorkerError(
                    f"shard worker failed after {attempt + 1} attempt(s)",
                    worker_traceback=last_traceback,
                )
                self.last_worker_error = error
                if self.on_error == "raise":
                    raise error
                for i in failed:
                    parts[i] = linear_match_indices(classifier, chunks[i])
                    recorder.incr("runtime.chunk_fallbacks")
                break
            attempt += 1
            recorder.incr("runtime.retries", len(failed))
            time.sleep(self.backoff_s * attempt)
            pending = failed
        if recorder.enabled:
            recorder.incr("shard.batches")
            recorder.incr("shard.packets", len(headers))
            recorder.incr("shard.chunks", len(chunks))
        # chunk order == input order
        merged = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return merged, classifier

    def match_indices(self, headers: Sequence[Sequence[int]]) -> np.ndarray:
        """Winning rule indices for a batch (int64, input order)."""
        return self.match_indices_with_classifier(headers)[0]

    def match_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Batched classification across the shards; results identical to
        the unsharded engine."""
        indices, classifier = self.match_indices_with_classifier(headers)
        return box_results(classifier, indices)

    # ------------------------------------------------------------------
    # Telemetry fold-back
    # ------------------------------------------------------------------
    def collect(self) -> None:
        """Fold per-replica recordings into :attr:`recorder`.

        Thread-mode replicas record counters/histograms into private
        recorders (their spans/heat already land in the shared sinks);
        this drains them into the parent so a snapshot taken right after
        sees every shard's data.  shm workers' deltas are mostly absorbed
        per chunk; this picks up any still queued.  Cheap and idempotent —
        the service calls it before every snapshot.
        """
        recorder = self.recorder
        if not hasattr(recorder, "absorb"):
            return
        if self._shm_pool is not None and recorder.enabled:
            for delta in self._shm_pool.take_deltas():
                recorder.absorb(delta)
        for local in self._replica_recorders:
            delta = local.drain(sinks=False)
            if not delta.is_empty():
                recorder.absorb(delta)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down (idempotent); folds any remaining
        per-replica telemetry back and restores original recorder
        bindings.  shm worker processes are stopped and ``join()``ed so
        their exit codes are reaped — no orphaned children."""
        self.collect()
        for engine, original in self._restore:
            if original is not None:
                _rebind_recorder(engine, original)
        self._restore = []
        self._replica_recorders = []
        if self._shm_pool is not None:
            self._shm_pool.close()
            self._shm_pool = None
        elif self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
