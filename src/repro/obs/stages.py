"""Per-request stage waterfall: preallocated numpy ring buffers.

A request crossing the serving path burns time in six places — decode,
queue-wait, coalesce-wait, lookup, encode, write — and knowing the
*split* matters more than knowing the total (a fat p99 from queue-wait
wants a bigger pool; from lookup it wants a better backend).  The
:class:`StageWaterfall` records that split per request id with near-zero
overhead:

* a ``(capacity, n_stages)`` float64 ring holds per-stage durations in
  seconds, plus parallel uint64 rings for request id and trace id — all
  preallocated, so the steady state allocates nothing;
* recording is ticket-based: :meth:`open` claims a row, stages write
  into it with :meth:`record` (idempotent, last write wins), and
  :meth:`commit` publishes the row and folds it into per-stage log2
  histograms compatible with
  :class:`~repro.runtime.telemetry.LatencyHistogram` buckets;
* the per-stage aggregates export as Prometheus histograms
  (``saxpac_stage_<name>_seconds``) with *exemplar* trace ids on the
  bucket a recent observation landed in, so a fat bucket links straight
  to a flight-recorder trace.

The ring is lock-free for the single-writer asyncio server (one event
loop thread does all opens/commits); a lock guards only the snapshot
path, which copies out.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.telemetry import NUM_BUCKETS, bucket_bound, bucket_index

__all__ = ["STAGES", "StageRecord", "StageWaterfall"]

#: Stage names, in pipeline order.  Column order of the ring.
STAGES: Tuple[str, ...] = (
    "decode",
    "queue_wait",
    "coalesce_wait",
    "lookup",
    "encode",
    "write",
)

_NUM_STAGES = len(STAGES)


class StageRecord:
    """One committed waterfall row, copied out of the ring."""

    __slots__ = ("request_id", "trace_id", "stages")

    def __init__(
        self,
        request_id: int,
        trace_id: int,
        stages: Dict[str, float],
    ) -> None:
        self.request_id = request_id
        self.trace_id = trace_id
        self.stages = stages

    @property
    def total_s(self) -> float:
        return float(sum(self.stages.values()))

    def as_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "stages_s": self.stages,
            "total_s": self.total_s,
        }


class StageWaterfall:
    """Bounded per-request stage-timing store + per-stage aggregates."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # Ring state.  A row is "open" between open() and commit();
        # commit publishes it by flipping _committed.  Tickets are row
        # indices, handed out round-robin.
        self._durations = np.zeros((capacity, _NUM_STAGES), dtype=np.float64)
        self._request_ids = np.zeros(capacity, dtype=np.uint64)
        self._trace_ids = np.zeros(capacity, dtype=np.uint64)
        self._committed = np.zeros(capacity, dtype=bool)
        self._next_row = 0
        # In-flight scratch rows.  Stages of an open ticket land in plain
        # Python lists (a float store, ~100ns) and hit the numpy ring in
        # one vectorized row assignment at commit() — per-element numpy
        # scalar writes on the request hot path cost microseconds each.
        self._scratch = [[0.0] * _NUM_STAGES for _ in range(capacity)]
        self._scratch_ids = [[0, 0] for _ in range(capacity)]
        # Per-stage cumulative log2 histograms (bucket i covers
        # [2^(i-1), 2^i) microseconds, same layout as LatencyHistogram).
        # Plain Python lists: commit() touches a handful of cells per
        # request, where list indexing beats numpy scalar access.
        self._bucket_counts = [[0] * NUM_BUCKETS for _ in range(_NUM_STAGES)]
        self._sums = [0.0] * _NUM_STAGES
        self._counts = [0] * _NUM_STAGES
        # Latest exemplar trace id per (stage, bucket); 0 = none.
        self._exemplars = [[0] * NUM_BUCKETS for _ in range(_NUM_STAGES)]
        self.committed_total = 0
        self._lock = threading.Lock()
        self._stage_index = {name: i for i, name in enumerate(STAGES)}

    # -- recording -----------------------------------------------------
    def open(self, request_id: int, trace_id: int = 0) -> int:
        """Claim a ring row for ``request_id``; returns the ticket."""
        row = self._next_row
        self._next_row = (row + 1) % self.capacity
        scratch = self._scratch[row]
        for i in range(_NUM_STAGES):
            scratch[i] = 0.0
        ids = self._scratch_ids[row]
        ids[0] = request_id & 0xFFFFFFFFFFFFFFFF
        ids[1] = trace_id & 0xFFFFFFFFFFFFFFFF
        self._committed[row] = False
        return row

    def record(self, ticket: int, stage: str, seconds: float) -> None:
        """Set one stage's duration on an open ticket (last write wins)."""
        self._scratch[ticket][self._stage_index[stage]] = seconds

    def add(self, ticket: int, stage: str, seconds: float) -> None:
        """Accumulate into one stage (for stages measured in pieces)."""
        self._scratch[ticket][self._stage_index[stage]] += seconds

    def commit(self, ticket: int) -> None:
        """Publish the row and fold it into the per-stage aggregates."""
        request_id, trace_id = self._scratch_ids[ticket]
        self._publish(ticket, self._scratch[ticket], request_id, trace_id)

    def commit_row(
        self,
        request_id: int,
        trace_id: int,
        durations: List[float],
    ) -> int:
        """Claim a row and publish it in one call; returns the row.

        The serving fast path: a caller that accumulated all six stage
        durations itself (e.g. as plain floats on its own per-request
        object) lands them with one call instead of the
        open/record/commit ticket dance — one method call per request
        instead of eight.  ``durations`` must be a list in
        :data:`STAGES` order; the waterfall keeps a reference to it, so
        the caller must not mutate it afterwards.
        """
        if len(durations) != _NUM_STAGES:
            raise ValueError(
                f"durations must carry {_NUM_STAGES} stages; "
                f"got {len(durations)}"
            )
        row = self._next_row
        self._next_row = (row + 1) % self.capacity
        self._scratch[row] = durations
        ids = self._scratch_ids[row]
        ids[0] = request_id & 0xFFFFFFFFFFFFFFFF
        ids[1] = trace_id & 0xFFFFFFFFFFFFFFFF
        self._publish(row, durations, ids[0], ids[1])
        return row

    def _publish(
        self,
        ticket: int,
        row: List[float],
        request_id: int,
        trace_id: int,
    ) -> None:
        with self._lock:
            self._durations[ticket] = row  # one vectorized ring write
            self._request_ids[ticket] = request_id
            self._trace_ids[ticket] = trace_id
            for si, seconds in enumerate(row):
                if seconds <= 0.0:
                    continue
                bucket = bucket_index(seconds)
                self._bucket_counts[si][bucket] += 1
                self._sums[si] += seconds
                self._counts[si] += 1
                if trace_id:
                    self._exemplars[si][bucket] = trace_id
            self._committed[ticket] = True
            self.committed_total += 1

    def peek(self, ticket: int) -> StageRecord:
        """Snapshot one row by ticket (committed or not) — what the
        flight recorder stores alongside the span tree."""
        with self._lock:
            return self._snapshot_row(ticket)

    def lookup(self, request_id: int) -> Optional[StageRecord]:
        """The most recent committed row for ``request_id``, if it is
        still in the ring."""
        wanted = np.uint64(request_id & 0xFFFFFFFFFFFFFFFF)
        with self._lock:
            hits = np.flatnonzero(
                (self._request_ids == wanted) & self._committed
            )
            if hits.size == 0:
                return None
            # Most recently written row: the one closest behind _next_row.
            age = (self._next_row - 1 - hits) % self.capacity
            row = int(hits[int(np.argmin(age))])
            return self._snapshot_row(row)

    def _snapshot_row(self, row: int) -> StageRecord:
        # Read the scratch row: identical to the numpy ring for committed
        # rows (until reuse), and the only valid source for open ones.
        durations = self._scratch[row]
        stages = {
            name: durations[i]
            for i, name in enumerate(STAGES)
            if durations[i] > 0.0
        }
        request_id, trace_id = self._scratch_ids[row]
        return StageRecord(request_id, trace_id, stages)

    # -- export --------------------------------------------------------
    def stage_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-stage aggregate snapshot: count, sum, raw log2 buckets,
        exemplar trace ids keyed by bucket index."""
        with self._lock:
            counts = list(self._counts)
            sums = list(self._sums)
            buckets = [list(row) for row in self._bucket_counts]
            exemplars = [list(row) for row in self._exemplars]
        out: Dict[str, Dict[str, object]] = {}
        for si, name in enumerate(STAGES):
            out[name] = {
                "count": counts[si],
                "sum_s": sums[si],
                "buckets": tuple(buckets[si]),
                "exemplars": {
                    bi: trace_id
                    for bi, trace_id in enumerate(exemplars[si])
                    if trace_id
                },
            }
        return out

    def recent(self, limit: int = 50) -> List[StageRecord]:
        """The newest committed rows, newest first."""
        with self._lock:
            rows = []
            for age in range(self.capacity):
                row = (self._next_row - 1 - age) % self.capacity
                if self._committed[row]:
                    rows.append(self._snapshot_row(row))
                    if len(rows) >= limit:
                        break
            return rows

    bucket_upper_bound = staticmethod(bucket_bound)

    @staticmethod
    def stage_names() -> Sequence[str]:
        return STAGES
