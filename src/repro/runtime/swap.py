"""RCU-style hot swap: rebuild the engine off the data path, swap
atomically, degrade gracefully.

A :class:`HotSwapRuntime` owns the authoritative rule state (a
:class:`~repro.saxpac.updates.DynamicSaxPac` update log) and a built
serving engine.  Updates apply to the dynamic state immediately and are
recorded in :attr:`~HotSwapRuntime.update_log`; a rebuild — inline by
default, in a background thread when ``background=True`` — constructs a
fresh :class:`~repro.saxpac.engine.SaxPacEngine` from a snapshot and swaps
it in with one attribute store (atomic under the GIL, the RCU
writer-side).  Readers grab the engine reference once per lookup or batch
and finish on whichever engine they started with (the read-side), so
traffic never blocks on a rebuild.

**Failure handling.**  A failed rebuild never crashes the serving path;
it degrades, in two tiers:

* with a good engine already serving, the failed build is *quarantined*:
  the old engine keeps serving (its answers stay exactly the linear
  reference of *its* snapshot — stale rules, correct semantics), the
  failure is counted (``swap.quarantined``) and :attr:`~HotSwapRuntime
  .quarantined` stays True until a later rebuild succeeds;
* with no engine to keep (the initial build, or the previous build
  already failed), :class:`LinearFallback` — a vectorized linear scan
  over the snapshot — swaps in, so classification stays *correct* while
  losing the sub-linear lookup, and repairs itself on the next
  successful rebuild.

Both paths signal an attached :class:`~repro.runtime.health
.HealthMonitor`; a chaos plan can force them deterministically through
the ``swap.build`` injection site (see :mod:`repro.chaos`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..chaos.injector import NULL_INJECTOR
from ..core.classifier import Classifier, MatchResult
from ..core.rule import Rule
from ..saxpac.config import EngineConfig
from ..saxpac.engine import SaxPacEngine
from ..saxpac.updates import DynamicSaxPac, InsertReport
from .batch import linear_match_indices, match_batch
from .telemetry import NULL_RECORDER

__all__ = ["HotSwapRuntime", "LinearFallback", "UpdateRecord"]


@dataclass(frozen=True)
class UpdateRecord:
    """One entry of the update log: what changed and when."""

    kind: str  # "insert" | "remove" | "modify"
    rule_id: Optional[int]
    rule: Optional[Rule] = None
    timestamp: float = 0.0


class LinearFallback:
    """Degraded but correct serving path: vectorized linear scan over a
    classifier snapshot.  Swapped in when an engine rebuild fails."""

    def __init__(self, classifier: Classifier) -> None:
        self.classifier = classifier

    def match(self, header: Sequence[int]) -> MatchResult:
        """First-match scan (reference semantics)."""
        return self.classifier.match(header)

    def match_batch_indices(self, headers: Sequence[Sequence[int]]):
        """Vectorized first-match over the whole rule list: winning rule
        index per header as an int64 ndarray."""
        return linear_match_indices(self.classifier, headers)


class HotSwapRuntime:
    """Serve traffic from a built engine while updates rebuild it in the
    background (Section 7.2's recomputation, made operational)."""

    def __init__(
        self,
        source,
        config: Optional[EngineConfig] = None,
        recorder=None,
        builder: Optional[Callable[[Classifier], object]] = None,
        background: bool = False,
        injector=None,
        health=None,
    ) -> None:
        """``source`` is a :class:`Classifier` (converted to dynamic
        state rule by rule) or an existing :class:`DynamicSaxPac`.
        ``builder`` maps a classifier snapshot to a serving engine —
        override to inject build policies (or failures, in tests).
        ``injector`` is the chaos hook (no-op by default) consulted at
        the ``swap.build`` site; ``health`` an optional
        :class:`~repro.runtime.health.HealthMonitor` receiving
        build-failure/-success signals."""
        self.config = config or EngineConfig()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.background = background
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.health = health
        #: True while the latest rebuild failed and the previous engine
        #: keeps serving (stale rules, correct semantics).
        self.quarantined = False
        # A custom builder opts out of incremental rebuilds: we cannot
        # know whether its engines support SaxPacEngine.rebuild.
        self._incremental = builder is None
        self._builder = builder or self._default_builder
        if isinstance(source, DynamicSaxPac):
            self._dyn = source
        elif isinstance(source, Classifier):
            self._dyn = DynamicSaxPac(
                source.schema,
                max_group_fields=self.config.max_group_fields,
                max_groups=self.config.max_groups,
                fp_budget=self.config.fp_budget,
                default_action=source.catch_all.action,
            )
            for rule in source.body:
                self._dyn.insert(rule)
        else:
            raise TypeError(
                "source must be a Classifier or DynamicSaxPac, "
                f"not {type(source).__name__}"
            )
        self.update_log: List[UpdateRecord] = []
        self.generation = 0
        self._lock = threading.Lock()  # writer-side only
        self._rebuild_thread: Optional[threading.Thread] = None
        self._dirty = False
        self._engine = None
        self.rebuild(wait=True)

    # ------------------------------------------------------------------
    # Engine construction / swapping
    # ------------------------------------------------------------------
    def _default_builder(self, snapshot: Classifier) -> SaxPacEngine:
        return SaxPacEngine(
            snapshot, self.config, recorder=self.recorder,
            injector=self.injector,
        )

    @property
    def engine(self):
        """The currently serving engine (RCU read-side: grab once, use
        for the whole batch)."""
        return self._engine

    @property
    def degraded(self) -> bool:
        """True while the linear fallback is serving."""
        return isinstance(self._engine, LinearFallback)

    def snapshot_classifier(self) -> Classifier:
        """Priority-ordered static snapshot of the dynamic state."""
        return self._dyn.to_classifier()

    def serving_classifier(self) -> Classifier:
        """The classifier the *serving* engine answers for.  Equal to
        :meth:`snapshot_classifier` except under quarantine, where the
        old engine (and its older snapshot) keeps serving — differential
        checks must compare against this one."""
        return self._engine.classifier

    def _build_and_swap(self) -> None:
        recorder = self.recorder
        start = time.perf_counter() if recorder.enabled else 0.0
        # Off the data path, so the span is unconditional; background
        # rebuilds start fresh traces (no caller context in the worker).
        with recorder.span(
            "swap.rebuild",
            generation=self.generation + 1,
            background=self.background,
        ):
            snapshot = self.snapshot_classifier()
            engine = None
            failed = False
            previous = self._engine
            injector = self.injector
            try:
                if injector.enabled:
                    injector.fire(
                        "swap.build", generation=self.generation + 1
                    )
            except Exception:
                failed = True
            if (
                not failed
                and self._incremental
                and isinstance(previous, SaxPacEngine)
            ):
                # Incremental path: re-admit only the changed rules,
                # reusing the serving engine's structures read-only (the
                # old engine keeps serving until the swap below).
                try:
                    engine = previous.rebuild(snapshot)
                    if engine.build_incremental:
                        recorder.incr("swap.incremental_rebuilds")
                    else:
                        recorder.incr("swap.full_rebuilds")
                except Exception:
                    recorder.incr("swap.incremental_failures")
                    engine = None
            if engine is None and not failed:
                try:
                    engine = self._builder(snapshot)
                    if self._incremental:
                        recorder.incr("swap.full_rebuilds")
                except Exception:
                    failed = True
            if failed:
                recorder.incr("swap.rebuild_failures")
                if self.health is not None:
                    self.health.record_failure("swap.build")
                if previous is not None and not isinstance(
                    previous, LinearFallback
                ):
                    # Quarantine the failed build: the old engine keeps
                    # serving (stale but exactly correct for its own
                    # snapshot); the serving path never sees the wreck.
                    self.quarantined = True
                    recorder.incr("swap.quarantined")
                    tracer = recorder.tracer
                    if tracer is not None:
                        tracer.event(
                            "swap.quarantine", generation=self.generation
                        )
                    return
                engine = LinearFallback(snapshot)
        # The swap itself: one attribute store, atomic under the GIL.
        # In-flight readers hold the old reference and drain naturally.
        self._engine = engine
        self.generation += 1
        # Whatever swapped in serves the *current* snapshot — any prior
        # quarantine (stale engine) is over.
        self.quarantined = False
        recorder.incr("swap.swaps")
        if isinstance(engine, LinearFallback):
            recorder.incr("swap.fallback_swaps")
        else:
            if self.health is not None:
                self.health.record_success("swap.build")
        if recorder.enabled:
            recorder.observe("swap.rebuild", time.perf_counter() - start)

    def rebuild(self, wait: bool = True) -> None:
        """Rebuild from the current dynamic state and swap the result in.

        ``wait=False`` (or ``background=True`` construction) runs the
        rebuild in a daemon thread; concurrent requests coalesce into one
        trailing rebuild.
        """
        if wait and not self.background:
            with self._lock:
                self._build_and_swap()
            return
        with self._lock:
            self._dirty = True
            if self._rebuild_thread and self._rebuild_thread.is_alive():
                return  # the running worker picks the dirty flag up
            self._rebuild_thread = threading.Thread(
                target=self._rebuild_worker,
                name="saxpac-rebuild",
                daemon=True,
            )
            self._rebuild_thread.start()
        if wait:
            self.flush()

    def _rebuild_worker(self) -> None:
        while True:
            with self._lock:
                if not self._dirty:
                    return
                self._dirty = False
            self._build_and_swap()

    def flush(self) -> None:
        """Block until no rebuild is pending (test/shutdown hook)."""
        while True:
            with self._lock:
                thread = self._rebuild_thread
                pending = self._dirty
            if thread is None or not thread.is_alive():
                if not pending:
                    return
                # Worker died between flag and start; run inline.
                with self._lock:
                    self._dirty = False
                self._build_and_swap()
                return
            thread.join(timeout=0.1)

    # ------------------------------------------------------------------
    # Updates (writer side)
    # ------------------------------------------------------------------
    def _log(self, kind: str, rule_id: Optional[int], rule: Optional[Rule]) -> None:
        self.update_log.append(
            UpdateRecord(kind, rule_id, rule, time.time())
        )
        self.recorder.incr(f"swap.{kind}s")

    def insert(self, rule: Rule) -> InsertReport:
        """Insert a rule; the change serves after the next swap."""
        report = self._dyn.insert(rule)
        if report.accepted:
            self._log("insert", report.rule_id, rule)
            self.rebuild(wait=not self.background)
        return report

    def remove(self, rule_id: int) -> None:
        """Remove a rule by id; the change serves after the next swap."""
        self._dyn.remove(rule_id)
        self._log("remove", rule_id, None)
        self.rebuild(wait=not self.background)

    def modify(self, rule_id: int, new_rule: Rule) -> InsertReport:
        """Replace a rule in place (same id and priority)."""
        report = self._dyn.modify(rule_id, new_rule)
        if report.accepted:
            self._log("modify", rule_id, new_rule)
            self.rebuild(wait=not self.background)
        return report

    # ------------------------------------------------------------------
    # Classification (reader side)
    # ------------------------------------------------------------------
    def match(self, header: Sequence[int]) -> MatchResult:
        """Single-packet match on the current engine."""
        return self._engine.match(header)

    def match_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Batched match; the whole batch runs on one engine reference."""
        return match_batch(self._engine, headers)

    def classify_batch(self, headers: Sequence[Sequence[int]]):
        """Actions of the winning rules, in input order."""
        return [result.action for result in self.match_batch(headers)]

    def __len__(self) -> int:
        return len(self._dyn)
