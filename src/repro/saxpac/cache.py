"""Power-efficient classification cache ((β,l)-MRCC, Section 4.3).

A cache front-end holds an order-independent subset I of the classifier,
constructed so that whenever the cache matches a (non-catch-all) rule, the
backing store — typically the TCAM holding the order-dependent remainder D
— need not be consulted at all.  This requires the MRCC property: no rule
of I intersects a higher-priority rule of D.

The wrapper tracks hit statistics, turning the paper's power argument
(TCAM lookups are expensive; skipped lookups are saved power) into
measurable counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..analysis.mgr import (
    Group,
    MGRResult,
    enforce_cache_property,
    independent_split,
)
from ..core.classifier import Classifier, MatchResult
from ..lookup.group_engine import MultiGroupEngine
from ..runtime.telemetry import NULL_RECORDER

__all__ = ["ClassificationCache", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss counters; ``hits`` are lookups the backing store never saw."""

    lookups: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without the backing store."""
        return self.hits / self.lookups if self.lookups else 0.0


class ClassificationCache:
    """Front-end over a full classifier: cached I answers directly, misses
    fall back to the reference classifier (standing in for the TCAM path).
    Semantically equivalent to the original classifier by Theorem 3 + the
    MRCC construction."""

    def __init__(
        self,
        classifier: Classifier,
        max_groups: Optional[int] = None,
        max_group_fields: int = 2,
        capacity: Optional[int] = None,
        recorder=None,
        heat: Optional[Mapping[int, int]] = None,
    ) -> None:
        """``capacity`` bounds the number of rules the cache front-end may
        hold (``cached_rules <= capacity`` always); ``recorder`` is an
        optional :mod:`repro.runtime.telemetry` sink.

        ``heat`` maps body-rule index -> observed hit count (the shape
        :func:`repro.obs.heat.rule_weights` produces from a ``repro top``
        heat report).  When given, capacity trimming keeps the *hottest*
        groups and members instead of the highest-priority ones, so a
        profiled workload concentrates its traffic in the cache.
        """
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.classifier = classifier
        self.capacity = capacity
        self.heat = dict(heat) if heat else None
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # Everything outside the groups is D for MRCC purposes.
        grouping = independent_split(classifier, max_group_fields, max_groups)
        grouping = enforce_cache_property(classifier, grouping)
        if capacity is not None:
            grouping = self._trim_to_capacity(grouping, capacity, self.heat)
            # Trimming moved rules into D, which may reintroduce priority
            # inversions — re-establish the cache property.  Demotion only
            # shrinks groups, so the capacity bound survives this pass.
            grouping = enforce_cache_property(classifier, grouping)
        self.grouping = grouping
        self._engine = MultiGroupEngine(classifier, grouping.groups)
        self.stats = CacheStats()

    @staticmethod
    def _trim_to_capacity(
        grouping: MGRResult,
        capacity: int,
        heat: Optional[Mapping[int, int]] = None,
    ) -> MGRResult:
        """Fit the grouping into ``capacity`` rules: keep the largest
        groups whole, and fill the remaining budget with a *prefix* of the
        next group — any subset of an order-independent group is still
        order-independent on the same fields, so truncation is sound.

        Without ``heat``, highest-priority members are kept (they see the
        most traffic under priority-skewed loads).  With ``heat`` (rule
        index -> hit count from a heat report), groups are ranked by
        observed traffic and the hottest members are kept, so the cache
        holds the rules the measured workload actually hits.
        """
        kept = []
        spill = set(grouping.ungrouped)
        budget = capacity
        if heat:
            def group_rank(g):
                return (
                    -sum(heat.get(idx, 0) for idx in g.rule_indices),
                    -g.size,
                )

            def member_rank(idx):
                return (-heat.get(idx, 0), idx)
        else:
            def group_rank(g):
                return -g.size

            def member_rank(idx):
                return idx
        for group in sorted(grouping.groups, key=group_rank):
            if budget <= 0:
                spill.update(group.rule_indices)
            elif group.size <= budget:
                kept.append(group)
                budget -= group.size
            else:
                members = sorted(group.rule_indices, key=member_rank)[:budget]
                spill.update(set(group.rule_indices) - set(members))
                kept.append(Group(tuple(sorted(members)), group.fields))
                budget = 0
        return MGRResult(tuple(kept), tuple(sorted(spill)), grouping.l)

    @property
    def cached_rules(self) -> int:
        """Rules held by the cache front-end."""
        return self._engine.num_rules

    def match(self, header: Sequence[int]) -> MatchResult:
        """Cache probe; on miss, defer to the full classifier."""
        recorder = self.recorder
        if recorder.enabled:
            start = time.perf_counter()
        self.stats.lookups += 1
        cached = self._engine.lookup(header)
        if cached is not None:
            self.stats.hits += 1
            result = MatchResult(cached, self.classifier.rules[cached])
        else:
            result = self.classifier.match(header)
        if recorder.enabled:
            recorder.incr("cache.lookups")
            recorder.incr("cache.hits" if cached is not None else "cache.misses")
            recorder.observe("cache.match", time.perf_counter() - start)
        return result
