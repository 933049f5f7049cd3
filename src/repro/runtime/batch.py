"""Batched classification drivers.

The vectorized batch kernels live with the structures they accelerate
(:meth:`SaxPacEngine.match_batch_indices`,
:meth:`MultiGroupEngine.lookup_batch`); this module supplies the
serving-side glue:

* :func:`box_results` — the one place the runtime builds
  :class:`MatchResult` objects: serving paths pass bare int64 rule
  indices end to end and box only at the API edge;
* :func:`match_batch` — uniform dispatch: any engine with a native
  ``match_batch_indices`` uses it, anything else gets a per-header loop,
  so every classifier-shaped object can ride the same pipeline;
* :func:`linear_match_indices` — a vectorized full linear scan, the
  graceful-degradation path used when a hot-swap rebuild fails
  (:func:`linear_match_batch` is its boxed form);
* :func:`verify_against_linear` — differential check of any engine's
  batch answers against that linear reference (the degradation
  invariant: degraded serving must still return the reference answer);
* :class:`BatchRunner` — replays a trace through an engine in fixed-size
  batches, recording throughput telemetry per batch.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from ..core.classifier import Classifier, MatchResult
from ..core.packet import headers_array
from .telemetry import NULL_RECORDER

__all__ = [
    "BatchRunner",
    "box_results",
    "iter_batches",
    "linear_match_batch",
    "linear_match_indices",
    "match_batch",
    "verify_against_linear",
]


def box_results(classifier: Classifier, indices) -> List[MatchResult]:
    """:class:`MatchResult` objects for rule ``indices`` of
    ``classifier``.  Box against the classifier of the same engine
    reference that produced the indices: after a hot swap the same index
    may name a different rule."""
    rules = classifier.rules
    return [
        MatchResult(i, rules[i])
        for i in np.asarray(indices, dtype=np.int64).tolist()
    ]


def match_batch(engine, headers: Sequence[Sequence[int]]) -> List[MatchResult]:
    """Classify ``headers`` on any engine, batched when it supports it.

    ``engine`` needs either a ``match_batch_indices(headers)`` method and
    a ``classifier``, or a ``match(header)`` method returning
    :class:`MatchResult`.
    """
    native = getattr(engine, "match_batch_indices", None)
    if native is not None:
        return box_results(engine.classifier, native(headers))
    single = engine.match
    return [single(header) for header in headers]


def linear_match_batch(
    classifier: Classifier, headers: Sequence[Sequence[int]]
) -> List[MatchResult]:
    """Vectorized first-match linear scan over the whole classifier.

    Semantically identical to :meth:`Classifier.match_batch` but performs
    one (chunked) containment test over all body rules at once — the
    fallback data path when no built engine is available.
    """
    return box_results(classifier, linear_match_indices(classifier, headers))


def linear_match_indices(
    classifier: Classifier, headers: Sequence[Sequence[int]]
) -> np.ndarray:
    """The index core of :func:`linear_match_batch`: winning rule index
    per header as an int64 ndarray — the form the serving fallbacks (the
    service's, the shards' and :class:`~repro.runtime.swap
    .LinearFallback`) return without materializing rule objects."""
    n = len(headers)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    catch_all = len(classifier.rules) - 1
    lows, highs = classifier.bounds_arrays()
    out = np.full(n, catch_all, dtype=np.int64)
    if lows.shape[0] == 0:
        return out
    harr = headers_array(headers, classifier.schema)
    chunk = max(1, 4_000_000 // max(1, lows.shape[0] * lows.shape[1]))
    for lo in range(0, n, chunk):
        h = harr[lo : lo + chunk]
        cube = h[:, None, :]
        ok = ((lows[None, :, :] <= cube) & (cube <= highs[None, :, :])).all(
            axis=2
        )
        hit = ok.any(axis=1)
        out[lo : lo + chunk][hit] = ok.argmax(axis=1)[hit]
    return out


def verify_against_linear(
    classifier: Classifier,
    headers: Sequence[Sequence[int]],
    results: Sequence[MatchResult],
) -> List[int]:
    """Indices where ``results`` disagree with the linear reference.

    The correctness oracle of the whole runtime (Theorems 1–2 make the
    fast path *equivalent* to the linear scan, never an approximation):
    an empty return means every answer — fast path, degraded path, or
    retried chunk — matches what a full first-match scan of
    ``classifier`` produces for ``headers``.  Used by the CLI
    ``--verify`` flag and the chaos suite, which must hold this even
    while faults are being injected.
    """
    if len(results) != len(headers):
        return list(range(max(len(results), len(headers))))
    reference = linear_match_batch(classifier, headers)
    return [
        i
        for i, (got, want) in enumerate(zip(results, reference))
        if got.index != want.index
    ]


def iter_batches(
    trace: Sequence[Sequence[int]], batch_size: int
) -> Iterator[Sequence[Sequence[int]]]:
    """Contiguous ``batch_size``-sized slices of ``trace`` (last one may
    be short)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for start in range(0, len(trace), batch_size):
        yield trace[start : start + batch_size]


class BatchRunner:
    """Replays traffic through an engine in fixed-size batches.

    ``engine_source`` lets the engine reference be re-read per batch —
    the RCU read-side convention that makes mid-stream hot swaps safe:
    a batch runs to completion on whichever engine it started with.
    """

    def __init__(
        self,
        engine=None,
        batch_size: int = 1024,
        recorder=None,
        engine_source: Optional[Callable[[], object]] = None,
    ) -> None:
        if (engine is None) == (engine_source is None):
            raise ValueError("pass exactly one of engine / engine_source")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._source = engine_source or (lambda: engine)
        self.batch_size = batch_size
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    def run(self, trace: Sequence[Sequence[int]]) -> List[MatchResult]:
        """Classify the whole trace; results in input order."""
        recorder = self.recorder
        results: List[MatchResult] = []
        for batch in iter_batches(trace, self.batch_size):
            if recorder.enabled:
                start = time.perf_counter()
            engine = self._source()  # RCU read: one engine per batch
            results.extend(match_batch(engine, batch))
            if recorder.enabled:
                recorder.incr("runtime.batches")
                recorder.incr("runtime.packets", len(batch))
                recorder.observe(
                    "runtime.batch", time.perf_counter() - start
                )
        return results
