"""Adapters exposing the probe structures as lookup backends.

Each adapter wraps one structure of :mod:`repro.lookup.group_engine` —
binary search on a disjoint key field, the two-field segment tree and
the vectorized linear scan — behind the :class:`~.registry.LookupBackend`
interface.  :mod:`.selector` holds the shape rule that picks among
them.
"""

from __future__ import annotations

from ...analysis.mgr import Group
from ...core.classifier import Classifier
from .registry import LookupBackend, register_backend
from .selector import disjoint_field

__all__ = ["IntervalBackend", "LinearBackend", "SegmentBackend"]


class IntervalBackend(LookupBackend):
    """Binary search on a field where the members are pairwise disjoint,
    plus a check of the other group fields — any group that has such a
    field (O(log N) probes, linear memory)."""

    name = "interval"

    def supports(self, classifier: Classifier, group: Group) -> bool:
        return disjoint_field(classifier, group) is not None

    def build(self, classifier, group):
        from ..group_engine import _IntervalGroupIndex

        return _IntervalGroupIndex(
            classifier, group, disjoint_field(classifier, group)
        )


class SegmentBackend(LookupBackend):
    """Segment tree over field a with per-node disjoint maps on field b
    — two-field groups only (O(log^2 N))."""

    name = "segment"

    def supports(self, classifier: Classifier, group: Group) -> bool:
        return len(group.fields) == 2

    def build(self, classifier, group):
        from ..group_engine import _TwoFieldGroupIndex

        return _TwoFieldGroupIndex(classifier, group)


class LinearBackend(LookupBackend):
    """Vectorized containment scan over the group members — any field
    count; O(N) per probe but with the smallest constants and zero build
    cost, which wins for tiny groups."""

    name = "linear"

    def supports(self, classifier: Classifier, group: Group) -> bool:
        return True

    def build(self, classifier, group):
        from ..group_engine import LinearGroupIndex

        return LinearGroupIndex(classifier, group)


register_backend(IntervalBackend())
register_backend(SegmentBackend())
register_backend(LinearBackend())
