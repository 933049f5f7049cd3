"""The hybrid SAX-PAC engine: software groups + order-dependent remainder.

Build pipeline (Sections 4 and 8):

1. **One-field iSet partition** — each round runs exact EDF interval
   scheduling (Section 4.4) on every field over the rules not yet
   placed, and keeps the largest set as a group whose members are
   pairwise disjoint on that key field (a NuevoMatch iSet).  Rounds stop
   after β groups or at the first set below the size floor
   (:attr:`~repro.saxpac.config.EngineConfig.min_group_size`, by default
   :data:`~repro.lookup.backends.LINEAR_CUTOVER`); every rule left over
   goes to the order-dependent part D, kept sorted.  Each group is served
   by binary search on its key field (Theorem 2, Fields Reduction).
2. **Optional MRCC** — demote group rules that intersect
   higher-priority D rules so a group match can preempt the
   (power-hungry) D lookup entirely.
3. **D as a software TCAM** — built with the group indexes, D becomes
   per-field bit vectors (:class:`_DTable`, the Lakshman–Stiliadis
   scheme): each field's elementary intervals between D's breakpoints
   own a row with one bit per D rule in priority order.  The TCAM
   entries D would occupy at full width are counted arithmetically
   (:func:`~repro.tcam.encoding.rule_entry_count`) when
   :meth:`SaxPacEngine.report` asks, and never programmed.

The groups need not be order-independent among each other, nor against
D: lookup merges the groups and D by lowest rule index.  If a packet's
first match r sits in a group, r is the only member containing the
packet's key value, so the group's one candidate is r (Theorem 2 — only
the key field needs a lookup); if r sits in D, D's first match is r.
Either way the minimum is r.  The paper's globally order-independent
split (:func:`~repro.analysis.mrc.greedy_independent_set` +
:func:`~repro.analysis.mgr.l_mgr`) stays in :mod:`repro.analysis`,
where the paper's tables compute it.

Lookup follows the dataflow of Figure 4 one batch at a time: it probes
every group, false-positive-checks the single candidate per group, and
matches D as a TCAM would — each field's interval row is read, the rows
are ANDed, and a priority encoder (the lowest set bit) picks D's first
match — then returns the highest-priority survivor.  The groups and D
run one after another here; only their answers are merged.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..analysis.mgr import (
    Group,
    MGRResult,
    enforce_cache_property,
    iset_partition,
)
from ..chaos.injector import NULL_INJECTOR
from ..core.actions import Action
from ..core.classifier import Classifier, MatchResult
from ..core.packet import headers_array
from ..lookup.group_engine import MultiGroupEngine, _IntervalGroupIndex
from ..runtime.batch import box_results
from ..runtime.telemetry import NULL_RECORDER
from ..tcam.encoding import BinaryRangeEncoder, RangeEncoder, rule_entry_count
from .config import EngineConfig

__all__ = ["SaxPacEngine", "EngineReport"]


@dataclass(frozen=True)
class EngineReport:
    """Structural summary of a built engine — the headline numbers of the
    evaluation (what fraction of rules escaped the TCAM, and how big the
    remaining TCAM is compared to a TCAM-only deployment)."""

    total_rules: int
    software_rules: int
    tcam_rules: int
    num_groups: int
    group_fields: Tuple[Tuple[int, ...], ...]
    tcam_entries: int
    tcam_entries_full: int
    #: Wall-clock seconds of the (latest) build or rebuild.  Timing fields
    #: are measurements, not structure — they stay out of equality so two
    #: builds of the same classifier compare equal.
    build_seconds: float = field(default=0.0, compare=False)
    #: Per-stage build breakdown, in execution order.
    build_stages: Tuple[Tuple[str, float], ...] = field(
        default=(), compare=False
    )
    #: True when this engine came from :meth:`SaxPacEngine.rebuild` reusing
    #: prior structures rather than a from-scratch compile.
    build_incremental: bool = field(default=False, compare=False)

    @property
    def software_fraction(self) -> float:
        """Share of body rules served by the software groups."""
        if self.total_rules == 0:
            return 1.0
        return self.software_rules / self.total_rules

    @property
    def tcam_saving(self) -> float:
        """1 - (hybrid TCAM entries / all-TCAM entries)."""
        if self.tcam_entries_full == 0:
            return 0.0
        return 1.0 - self.tcam_entries / self.tcam_entries_full

    def is_sane(self) -> bool:
        """Structural invariants every honest report satisfies; a False
        here means the report is corrupt (a chaos plan can force this via
        the ``engine.report`` site) and must not be trusted or exported."""
        return (
            self.total_rules >= 0
            and self.software_rules >= 0
            and self.tcam_rules >= 0
            and self.num_groups >= 0
            and self.tcam_entries >= 0
            and self.tcam_entries_full >= 0
            and self.software_rules + self.tcam_rules == self.total_rules
            and len(self.group_fields) == self.num_groups
        )


class _BuildStage:
    """Times one build stage and reports it to telemetry: appends
    ``(name, seconds)`` to the shared list, emits an
    ``engine.build.<name>`` observation, and nests an
    ``engine.build.<name>`` span when tracing is enabled."""

    __slots__ = ("_name", "_stages", "_recorder", "_span", "_start")

    def __init__(self, name, stages, recorder) -> None:
        self._name = name
        self._stages = stages
        self._recorder = recorder
        self._span = None
        self._start = 0.0

    def __enter__(self) -> "_BuildStage":
        if self._recorder.enabled:
            self._span = self._recorder.span(f"engine.build.{self._name}")
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self._stages.append((self._name, elapsed))
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            self._span = None
        if self._recorder.enabled and exc_type is None:
            self._recorder.observe(f"engine.build.{self._name}", elapsed)


class _DTable(NamedTuple):
    """D as a software TCAM: per-field bit vectors over D's rules
    (Lakshman–Stiliadis), read by :meth:`SaxPacEngine._d_match_batch`.

    ``cuts[f]`` holds the sorted distinct breakpoints ``{lo, hi + 1}`` of
    D's rules on field ``f``; ``cuts[f].searchsorted(v, "right")`` picks
    one of ``len(cuts[f]) + 1`` elementary intervals, the first and last
    of which no rule covers.  Row ``i`` of ``rows[f]`` holds interval
    ``i``'s ``ceil(|D| / 64)`` uint64 words; bit ``j`` is set iff D rule
    ``j`` (priority order) covers the interval.  ``labels[j]`` is that
    rule's body index, with a trailing -1 that an empty match lands on."""

    labels: np.ndarray
    cuts: Tuple[np.ndarray, ...]
    rows: Tuple[np.ndarray, ...]

    @classmethod
    def build(cls, classifier: Classifier, d: Sequence[int]) -> "_DTable":
        """The table of the body rules ``d`` (ascending) of
        ``classifier``.  Each rule toggles its bit at the rows of its
        ``lo`` and ``hi + 1``; a running XOR down the rows then sets it
        exactly on the intervals in between."""
        lows, highs = classifier.bounds_arrays()
        d = np.asarray(d, dtype=np.int64)
        slot = np.arange(d.size)
        word = slot >> 6
        bit = np.left_shift(np.uint64(1), (slot & 63).astype(np.uint64))
        width = max(1, -(-d.size // 64))
        cuts, rows = [], []
        for f in range(lows.shape[1]):
            lo, end = lows[d, f], highs[d, f] + 1
            # Stable argsort and a mask rather than np.sort or np.unique:
            # the grouping stage already loaded this sort kernel, and a
            # first call of the others raises the process's resident
            # memory by more than the whole table.
            points = np.concatenate([lo, end])
            points = points[points.argsort(kind="stable")]
            keep = np.ones(points.size, dtype=bool)
            keep[1:] = points[1:] != points[:-1]
            points = points[keep]
            block = np.zeros((points.size + 1, width), dtype=np.uint64)
            for edge in (lo, end):
                at = points.searchsorted(edge, side="right")
                np.bitwise_xor.at(block, (at, word), bit)
            np.bitwise_xor.accumulate(block, axis=0, out=block)
            cuts.append(points)
            rows.append(block)
        return cls(np.append(d, -1), tuple(cuts), tuple(rows))


def _iset_index(classifier: Classifier, group: Group) -> _IntervalGroupIndex:
    """The index of a one-field iSet: binary search on its key field."""
    (key,) = group.fields
    return _IntervalGroupIndex(classifier, group, key)


class SaxPacEngine:
    """Semantically equivalent drop-in for first-match classification."""

    def __init__(
        self,
        classifier: Classifier,
        config: Optional[EngineConfig] = None,
        encoder: Optional[RangeEncoder] = None,
        recorder=None,
        injector=None,
    ) -> None:
        self.classifier = classifier
        self.config = config or EngineConfig()
        self.encoder = encoder or BinaryRangeEncoder()
        #: Telemetry sink (:mod:`repro.runtime.telemetry`); the default
        #: null recorder keeps the hot path free of instrumentation cost.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Chaos hook (:mod:`repro.chaos`); the default null injector is
        #: a no-op, so production lookups pay one attribute load.
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _stage(self, name: str, stages: List[Tuple[str, float]]):
        """Context manager timing one build stage: appends ``(name,
        seconds)`` to ``stages``, mirrors it to the telemetry recorder and
        opens an ``engine.build.<name>`` span when tracing is on."""
        return _BuildStage(name, stages, self.recorder)

    def _partition(
        self,
        classifier: Classifier,
        rule_subset: Optional[Sequence[int]],
        budget: Optional[int],
    ) -> MGRResult:
        """The one-field iSet partition of ``rule_subset`` (all body
        rules when None) into at most ``budget`` groups of at least
        ``min_group_size``; the rest is D."""
        return iset_partition(
            classifier,
            rule_subset,
            beta=budget,
            min_size=self.config.min_group_size,
        )

    def _build(self) -> None:
        cfg = self.config
        classifier = self.classifier
        stages: List[Tuple[str, float]] = []
        with self._stage("grouping", stages):
            grouping = self._partition(classifier, None, cfg.max_groups)
            if cfg.enforce_cache:
                grouping = enforce_cache_property(classifier, grouping)
        self.grouping = grouping
        with self._stage("lookup", stages):
            self.software = MultiGroupEngine(
                classifier,
                (),
                recorder=self.recorder,
                prebuilt=[_iset_index(classifier, g) for g in grouping.groups],
            )
            self._d_table = _DTable.build(classifier, grouping.ungrouped)
        self._d_indices: Tuple[int, ...] = grouping.ungrouped
        self.d_lookups_skipped = 0
        self.build_stages: Tuple[Tuple[str, float], ...] = tuple(stages)
        self.build_seconds: float = sum(dt for _, dt in stages)
        self.build_incremental: bool = False

    # ------------------------------------------------------------------
    # Incremental rebuild
    # ------------------------------------------------------------------
    #: Fraction of (tombstoned + added) rules beyond which an incremental
    #: rebuild stops paying off and :meth:`rebuild` compiles from scratch.
    STALENESS_LIMIT = 0.25

    def rebuild(self, new_classifier: Classifier) -> "SaxPacEngine":
        """A new engine for ``new_classifier``, reusing this engine's
        structures where the rule set did not change.

        Rules are diffed by **object identity** (snapshot flows such as
        :class:`~repro.runtime.swap.HotSwapRuntime` and
        :class:`~repro.saxpac.updates.DynamicSaxPac` reuse ``Rule``
        instances across versions).  Carried rules keep their group slots —
        priority shifts only relabel the per-group ``rule_ids`` arrays;
        removed rules tombstone their slots (sound because members are
        pairwise disjoint on the group's key field); each added rule
        joins the first carried group with a free gap for it on the
        group's key field (:meth:`_place`, then
        :meth:`~repro.lookup.group_engine.GroupIndex.extended`), and the
        added rules no group took are partitioned among themselves by
        the build's one-field iSet routine into new groups, within the β
        budget the carried groups leave; whatever falls below the size
        floor spills to D.  D is the sorted union of carried D rules and
        the spill; its bit-vector table is built afresh.

        The serving engine is never mutated — shared structures are reused
        read-only, so an RCU-style swap can retire it safely.  Falls back
        to a from-scratch build when the diff cannot be trusted (duplicate
        rule objects, schema change, MRCC mode) or when accumulated churn
        exceeds :data:`STALENESS_LIMIT`.  Semantics always match a full
        build; the grouping *shape* may differ (delta groups).
        """
        cfg = self.config
        stages: List[Tuple[str, float]] = []
        with self._stage("diff", stages):
            plan = self._diff(new_classifier)
        if plan is None:
            return SaxPacEngine(
                new_classifier, cfg, self.encoder, self.recorder,
                injector=self.injector,
            )
        old_to_new, added = plan
        with self._stage("grouping", stages):
            #: (old index, relabeled rule_ids) per carried group.
            carried: List[Tuple[object, np.ndarray]] = []
            for index in self.software.groups:
                ids = index.rule_ids
                mapped = np.where(
                    ids >= 0, old_to_new[np.maximum(ids, 0)], np.int64(-1)
                )
                if (mapped >= 0).any():
                    carried.append((index, mapped))
            extra, rest = self._place(new_classifier, carried, added)
            budget = (
                None
                if cfg.max_groups is None
                else max(0, cfg.max_groups - len(carried))
            )
            delta = self._partition(new_classifier, rest, budget)
        with self._stage("lookup", stages):
            indexes = []
            for (index, mapped), fits in zip(carried, extra):
                view = index.reindexed(mapped)
                indexes.append(
                    view.extended(new_classifier, fits) if fits else view
                )
            indexes.extend(
                _iset_index(new_classifier, g) for g in delta.groups
            )
            software = MultiGroupEngine(
                new_classifier,
                (),
                recorder=self.recorder,
                prebuilt=indexes,
            )
            carried_d = [
                int(old_to_new[i])
                for i in self._d_indices
                if old_to_new[i] >= 0
            ]
            d_indices = tuple(sorted(set(carried_d).union(delta.ungrouped)))
            groups = tuple(
                Group(
                    rule_indices=tuple(
                        index.rule_ids[index.rule_ids >= 0].tolist()
                    ),
                    fields=index.fields,
                )
                for index in indexes
            )
            # Inside the stage: _from_parts builds D's table.
            engine = SaxPacEngine._from_parts(
                new_classifier,
                cfg,
                self.encoder,
                self.recorder,
                grouping=MGRResult(groups, d_indices, 1),
                software=software,
                d_indices=d_indices,
                stages=(),
                injector=self.injector,
            )
        engine.build_stages = tuple(stages)
        engine.build_seconds = sum(dt for _, dt in stages)
        return engine

    @staticmethod
    def _place(
        classifier: Classifier,
        carried: Sequence[Tuple[object, np.ndarray]],
        added: Sequence[int],
    ) -> Tuple[List[List[int]], List[int]]:
        """Fit each added rule into the first carried group with a free
        gap for it on the group's key field: per carried group, the added
        rules it takes, and the added rules no group took.

        The gap test bisects the live members' key bounds, sorted by low
        end; members are pairwise disjoint there, so the high ends are
        sorted too, and the rule fits iff the last member starting at or
        below its high end ends below its low end."""
        extra: List[List[int]] = [[] for _ in carried]
        if not added or not carried:
            return extra, list(added)
        lows, highs = classifier.bounds_arrays()
        #: Per group, lazily: (key field, sorted live lows, their highs).
        gaps: List[Optional[Tuple[int, list, list]]] = [None] * len(carried)
        rest: List[int] = []
        for rule in added:
            for g, (index, mapped) in enumerate(carried):
                if gaps[g] is None:
                    (key,) = index.fields
                    live = mapped[mapped >= 0]
                    live = live[np.argsort(lows[live, key], kind="stable")]
                    gaps[g] = (
                        key,
                        lows[live, key].tolist(),
                        highs[live, key].tolist(),
                    )
                key, glo, ghi = gaps[g]
                low, high = lows[rule, key], highs[rule, key]
                at = bisect_right(glo, high)
                if at == 0 or ghi[at - 1] < low:
                    glo.insert(at, low)
                    ghi.insert(at, high)
                    extra[g].append(rule)
                    break
            else:
                rest.append(rule)
        return extra, rest

    def _diff(
        self, new_classifier: Classifier
    ) -> Optional[Tuple[np.ndarray, List[int]]]:
        """Identity diff against ``new_classifier``: the old-index → new-
        index map (-1 for removed) and the list of new body indices.  None
        when the incremental path is not applicable."""
        if self.config.enforce_cache:
            # MRCC demotions depend on global priorities; localized
            # re-admission cannot preserve the cache property.
            return None
        if new_classifier.schema != self.classifier.schema:
            return None
        old_body = self.classifier.body
        new_body = new_classifier.body
        old_ids = {id(rule): i for i, rule in enumerate(old_body)}
        if len(old_ids) != len(old_body):
            return None
        if len({id(rule) for rule in new_body}) != len(new_body):
            return None
        old_to_new = np.full(max(len(old_body), 1), -1, dtype=np.int64)
        added: List[int] = []
        carried = 0
        for j, rule in enumerate(new_body):
            i = old_ids.get(id(rule))
            if i is None:
                added.append(j)
            else:
                old_to_new[i] = j
                carried += 1
        removed = len(old_body) - carried
        tombstones = sum(
            int((index.rule_ids < 0).sum()) for index in self.software.groups
        )
        churn = removed + tombstones + len(added)
        if churn > self.STALENESS_LIMIT * max(1, len(new_body)):
            return None
        return old_to_new, added

    @classmethod
    def _from_parts(
        cls,
        classifier: Classifier,
        config: EngineConfig,
        encoder: RangeEncoder,
        recorder,
        *,
        grouping: MGRResult,
        software: MultiGroupEngine,
        d_indices: Tuple[int, ...],
        stages: Tuple[Tuple[str, float], ...],
        injector=None,
    ) -> "SaxPacEngine":
        self = cls.__new__(cls)
        self.classifier = classifier
        self.config = config
        self.encoder = encoder
        self.recorder = recorder
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.grouping = grouping
        self.software = software
        self._d_indices = d_indices
        self._d_table = _DTable.build(classifier, d_indices)
        self.d_lookups_skipped = 0
        self.build_stages = stages
        self.build_seconds = sum(dt for _, dt in stages)
        self.build_incremental = True
        return self

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def match(self, header: Sequence[int]) -> MatchResult:
        """One header through :meth:`match_batch_indices`."""
        index = int(self.match_batch_indices([header])[0])
        return MatchResult(index, self.classifier.rules[index])

    def match_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Batched :meth:`match`: identical results, amortized cost.

        Each group index is probed once for the whole batch (vectorized
        where the structure allows), candidate verification runs as one
        containment test, and the order-dependent part D is matched
        through its per-field bit vectors (:meth:`_d_match_batch`).
        """
        return box_results(self.classifier, self.match_batch_indices(headers))

    def match_batch_indices(
        self, headers: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """The index core of :meth:`match_batch`: winning rule index per
        header as an int64 ndarray, no :class:`MatchResult`
        materialization.  This is the form shared-memory shard workers
        write straight into result slabs (:mod:`repro.runtime.shm`) and
        the wire path encodes without touching rule objects."""
        n = len(headers)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if self.injector.enabled:
            # The slow-lookup / lookup-crash chaos site: fires before any
            # state is touched, so an injected exception leaves the
            # engine consistent for the caller's retry or fallback.
            self.injector.fire("engine.lookup", batch=n)
        recorder = self.recorder
        span = None
        if recorder.enabled:
            start = time.perf_counter()
            span = recorder.span("engine.match_batch", batch=n)
            span.__enter__()
        rules = self.classifier.rules
        catch_all = len(rules) - 1
        harr = headers_array(headers, self.classifier.schema)
        soft = self.software.lookup_batch(harr)
        hit = soft >= 0
        if self.config.enforce_cache:
            need_d = ~hit
            self.d_lookups_skipped += int(hit.sum())
        else:
            need_d = np.ones(n, dtype=bool)
        best = np.where(hit, soft, np.int64(catch_all))
        probed = int(need_d.sum())
        d_hits = 0
        if probed and self._d_indices:
            d_span = (
                recorder.span("engine.d_probe", batch=probed)
                if recorder.enabled
                else None
            )
            if d_span is not None:
                d_span.__enter__()
            d_best = self._d_match_batch(harr[need_d])
            if d_span is not None:
                d_span.__exit__(None, None, None)
            d_hits = int((d_best >= 0).sum())
            best[need_d] = np.minimum(
                best[need_d],
                np.where(d_best >= 0, d_best, np.int64(catch_all)),
            )
        if recorder.enabled:
            recorder.incr("engine.lookups", n)
            recorder.incr("engine.batches")
            recorder.incr(
                "engine.group_probes", n * len(self.software.groups)
            )
            recorder.incr("engine.software_hits", int(hit.sum()))
            recorder.incr("engine.d_probes", probed)
            recorder.incr("engine.d_skipped", n - probed)
            heat = recorder.heat
            if heat is not None:
                heat.record_rules(best)
                if probed:
                    heat.record_group("d", probes=probed, hits=d_hits)
            span.__exit__(None, None, None)
            recorder.observe(
                "engine.match_batch", time.perf_counter() - start
            )
        return best

    def _d_match_batch(self, harr: np.ndarray) -> np.ndarray:
        """First match over the order-dependent part D, the way a TCAM
        finds it: body rule index per header, -1 where no D rule matches.

        One ``searchsorted`` per field finds each header's elementary
        interval; the rows of those intervals are ANDed across fields, so
        bit ``j`` of the result is set iff D rule ``j`` contains the
        header, and the lowest set bit of the first nonzero word is the
        priority encoder's pick."""
        table = self._d_table
        words = None
        for cuts, rows, column in zip(table.cuts, table.rows, harr.T):
            hit = rows.take(cuts.searchsorted(column, side="right"), axis=0)
            if words is None:
                words = hit
            else:
                words &= hit
        slot = -1
        for w in range(words.shape[1] - 1, -1, -1):
            word = words[:, w]
            # ``word & -word`` keeps the lowest set bit, a power of two
            # whose float64 exponent is exact; a zero word reads as -1.
            _, exponent = np.frexp((word & -word).astype(float))
            slot = np.where(word != 0, exponent + (64 * w - 1), slot)
        return table.labels[slot]

    def classify(self, header: Sequence[int]) -> Action:
        """Action of the highest-priority matching rule."""
        return self.match(header).action

    def classify_batch(
        self, headers: Sequence[Sequence[int]]
    ) -> List[Action]:
        """Actions of the highest-priority matches, in input order."""
        return [result.action for result in self.match_batch(headers)]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> EngineReport:
        """Structural summary: decomposition sizes and TCAM savings.

        ``tcam_entries`` is what D would occupy in a full-width TCAM under
        :attr:`encoder`, counted per rule without expanding it.

        Under a chaos plan with an ``engine.report`` corrupt spec, the
        returned report is deliberately nonsensical (negative sizes) —
        consumers must reject it via :meth:`EngineReport.is_sane`.
        """
        from ..tcam.cost import classifier_entry_count

        if self.injector.enabled and self.injector.corrupted(
            "engine.report"
        ):
            return EngineReport(
                total_rules=-1,
                software_rules=-1,
                tcam_rules=-1,
                num_groups=-1,
                group_fields=(),
                tcam_entries=-1,
                tcam_entries_full=-1,
            )
        classifier = self.classifier
        full_entries = classifier_entry_count(classifier, self.encoder)
        schema = classifier.schema
        d_entries = sum(
            rule_entry_count(classifier.rules[i], schema, self.encoder)
            for i in self._d_indices
        )
        return EngineReport(
            total_rules=len(self.classifier.body),
            software_rules=self.software.num_rules,
            tcam_rules=len(self._d_indices),
            num_groups=len(self.grouping.groups),
            group_fields=tuple(g.fields for g in self.grouping.groups),
            tcam_entries=d_entries,
            tcam_entries_full=full_entries,
            build_seconds=self.build_seconds,
            build_stages=self.build_stages,
            build_incremental=self.build_incremental,
        )
