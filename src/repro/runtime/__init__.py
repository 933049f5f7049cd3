"""repro.runtime — the batched, sharded serving layer.

Turns the one-shot engines of :mod:`repro.saxpac` into a production-style
pipeline:

* :mod:`~repro.runtime.telemetry` — per-stage counters and latency
  histograms behind a near-zero-cost null recorder;
* :mod:`~repro.runtime.batch` — batched classification drivers and the
  vectorized linear-scan fallback;
* :mod:`~repro.runtime.shard` — a sharded worker pool (threads by
  default, shared-memory process workers opt-in) with in-order merge;
* :mod:`~repro.runtime.swap` — RCU-style hot swap of a rebuilt engine
  under live traffic, degrading to the linear fallback on rebuild
  failure;
* :mod:`~repro.runtime.health` — the ``healthy -> degraded ->
  linear-fallback`` degradation ladder fed by shard/swap failure
  signals;
* :mod:`~repro.runtime.service` — the facade gluing all of the above,
  used by ``python -m repro runtime``.

Only :mod:`~repro.runtime.telemetry` is imported eagerly: the engines
under :mod:`repro.saxpac` depend on it, so the heavier runtime modules
(which in turn import the engines) load lazily via PEP 562 to keep the
import graph acyclic.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from .telemetry import (
    NULL_RECORDER,
    HistogramStats,
    LatencyHistogram,
    NullRecorder,
    Telemetry,
    TelemetryDelta,
    TelemetrySnapshot,
    render_text,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batch import BatchRunner, linear_match_batch, match_batch
    from .health import HealthMonitor, HealthState
    from .service import (
        LoadShedError,
        RunReport,
        RuntimeConfig,
        RuntimeService,
    )
    from .shard import ShardedRuntime, ShardWorkerError
    from .swap import HotSwapRuntime, LinearFallback, UpdateRecord

__all__ = [
    "BatchRunner",
    "HealthMonitor",
    "HealthState",
    "HistogramStats",
    "HotSwapRuntime",
    "LatencyHistogram",
    "LinearFallback",
    "LoadShedError",
    "NULL_RECORDER",
    "NullRecorder",
    "RunReport",
    "RuntimeConfig",
    "RuntimeService",
    "ShardWorkerError",
    "ShardedRuntime",
    "Telemetry",
    "TelemetryDelta",
    "TelemetrySnapshot",
    "UpdateRecord",
    "linear_match_batch",
    "match_batch",
    "render_text",
]

_LAZY = {
    "BatchRunner": ".batch",
    "linear_match_batch": ".batch",
    "match_batch": ".batch",
    "HealthMonitor": ".health",
    "HealthState": ".health",
    "ShardedRuntime": ".shard",
    "ShardWorkerError": ".shard",
    "HotSwapRuntime": ".swap",
    "LinearFallback": ".swap",
    "UpdateRecord": ".swap",
    "LoadShedError": ".service",
    "RunReport": ".service",
    "RuntimeConfig": ".service",
    "RuntimeService": ".service",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
