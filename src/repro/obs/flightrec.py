"""Flight recorder: always-on bounded capture of anomalous requests.

Dashboards aggregate; debugging needs *the* request.  The flight
recorder keeps, for every anomalous request, everything needed to replay
the investigation after the fact — its verdict, stage waterfall, span
tree, and a snapshot of server health/backend state at that moment —
in a bounded ring that costs a dict append on the happy path.

Retention policy (see DESIGN §5g):

* **anomalous** requests — verdict ``shed``, ``error``, ``deadline``,
  ``drain``, ``chaos`` (a fault injector fired inside the request), or
  ``slow`` (total latency above the streaming p99.9, once at least
  ``warmup`` requests have been seen) — are *always* retained, in a ring
  of ``capacity`` entries reserved for them;
* **normal** requests trickle in at 1-in-``normal_sample`` into a
  separate smaller ring, so a flood of healthy traffic can never evict
  the anomaly you are hunting, and a dump always carries baseline
  requests to diff against.

Slow detection is self-calibrating: totals feed a log2-bucketed
histogram (same layout as the telemetry histograms) and the p99.9
threshold is derived from it, so "slow" tracks the workload rather than
a magic constant.

:meth:`FlightRecorder.dump` renders the whole state as one JSON-ready
dict; the obs server serves it at ``/flightrecorder`` and
``repro flightrec`` pretty-prints it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional

from ..runtime.telemetry import NUM_BUCKETS, bucket_bound, bucket_index

__all__ = ["ANOMALOUS_VERDICTS", "FlightEntry", "FlightRecorder"]

#: Verdicts always retained (everything except ``ok``).
ANOMALOUS_VERDICTS = frozenset(
    {"shed", "error", "deadline", "drain", "chaos", "slow"}
)


class FlightEntry:
    """One retained request."""

    __slots__ = (
        "request_id",
        "trace_id",
        "verdict",
        "wall_time",
        "total_s",
        "stages",
        "spans",
        "state",
        "tags",
    )

    def __init__(
        self,
        request_id: int,
        trace_id: int,
        verdict: str,
        wall_time: float,
        total_s: float,
        stages: Optional[Dict[str, float]],
        spans: Optional[List[Dict[str, object]]],
        state: Optional[Dict[str, object]],
        tags: Dict[str, object],
    ) -> None:
        self.request_id = request_id
        self.trace_id = trace_id
        self.verdict = verdict
        self.wall_time = wall_time
        self.total_s = total_s
        self.stages = stages or {}
        self.spans = spans or []
        self.state = state or {}
        self.tags = tags

    def as_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "verdict": self.verdict,
            "wall_time": self.wall_time,
            "total_s": self.total_s,
            "stages_s": self.stages,
            "spans": self.spans,
            "state": self.state,
            "tags": self.tags,
        }


class FlightRecorder:
    """Bounded always-on anomaly capture.  Thread-safe."""

    def __init__(
        self,
        capacity: int = 256,
        normal_capacity: int = 32,
        normal_sample: int = 128,
        slow_quantile: float = 0.999,
        warmup: int = 100,
    ) -> None:
        if capacity < 1 or normal_capacity < 1:
            raise ValueError("capacities must be >= 1")
        if normal_sample < 1:
            raise ValueError("normal_sample must be >= 1")
        if not 0.0 < slow_quantile < 1.0:
            raise ValueError("slow_quantile must be in (0, 1)")
        self.capacity = capacity
        self.normal_capacity = normal_capacity
        self.normal_sample = normal_sample
        self.slow_quantile = slow_quantile
        self.warmup = warmup
        self._anomalous: deque = deque(maxlen=capacity)
        self._normal: deque = deque(maxlen=normal_capacity)
        self._lock = threading.Lock()
        self._buckets = [0] * NUM_BUCKETS
        self._seen = 0
        self._normal_tick = 0
        self._cached_threshold: Optional[float] = None
        self.retained: Dict[str, int] = {}

    # -- slow threshold ------------------------------------------------
    def _observe_total(self, total_s: float) -> None:
        self._buckets[bucket_index(total_s)] += 1
        self._seen += 1
        # The quantile scan is O(buckets); refreshing the cache every
        # 32 observations keeps note() O(1) on the happy path while the
        # threshold still tracks the workload closely.
        if self._seen >= self.warmup and (
            self._cached_threshold is None or self._seen % 32 == 0
        ):
            self._cached_threshold = self._compute_threshold()

    def _compute_threshold(self) -> float:
        target = self.slow_quantile * self._seen
        running = 0
        for index, count in enumerate(self._buckets):
            running += count
            if running >= target:
                return bucket_bound(index)
        return bucket_bound(NUM_BUCKETS - 1)

    def slow_threshold_s(self) -> Optional[float]:
        """Current p99.9 latency in seconds, or None during warm-up."""
        if self._seen < self.warmup:
            return None
        return self._compute_threshold()

    # -- capture -------------------------------------------------------
    def note(
        self,
        request_id: int,
        trace_id: int,
        verdict: str,
        total_s: float = 0.0,
        stages=None,
        spans=None,
        state=None,
        **tags: object,
    ) -> Optional[str]:
        """Consider one finished request for retention.

        Returns the retained verdict (``verdict`` itself, ``"slow"`` for
        an upgraded ok, ``"ok"`` for a sampled normal) or None when the
        request was not retained.  ``stages``, ``spans`` and ``state``
        may each be a zero-arg callable producing the value; callables
        are only invoked when the request is actually retained, so
        harvesting costs nothing on the unretained happy path.
        """
        with self._lock:
            threshold = self._cached_threshold
            self._observe_total(total_s)
            if verdict == "ok" and threshold is not None and total_s > threshold:
                verdict = "slow"
            if verdict in ANOMALOUS_VERDICTS:
                ring = self._anomalous
            elif verdict == "ok":
                self._normal_tick += 1
                if (self._normal_tick - 1) % self.normal_sample:
                    return None
                ring = self._normal
            else:
                raise ValueError(f"unknown verdict {verdict!r}")
            if callable(stages):
                stages = stages()
            if callable(spans):
                spans = spans()
            if callable(state):
                state = state()
            ring.append(
                FlightEntry(
                    request_id,
                    trace_id,
                    verdict,
                    time.time(),
                    total_s,
                    stages,
                    spans,
                    state,
                    dict(tags),
                )
            )
            self.retained[verdict] = self.retained.get(verdict, 0) + 1
            return verdict

    # -- export --------------------------------------------------------
    def entries(self) -> List[FlightEntry]:
        """All retained entries, newest first, anomalous before normal."""
        with self._lock:
            return list(reversed(self._anomalous)) + list(
                reversed(self._normal)
            )

    def dump(self) -> Dict[str, object]:
        """JSON-ready snapshot of the whole recorder."""
        with self._lock:
            anomalous = [e.as_dict() for e in reversed(self._anomalous)]
            normal = [e.as_dict() for e in reversed(self._normal)]
            return {
                "seen": self._seen,
                "retained": dict(self.retained),
                "slow_threshold_s": self.slow_threshold_s(),
                "capacity": self.capacity,
                "normal_capacity": self.normal_capacity,
                "normal_sample": self.normal_sample,
                "anomalous": anomalous,
                "normal": normal,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._anomalous) + len(self._normal)
