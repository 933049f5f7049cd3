"""Lookup backends: which structure serves a group of the paper's
lookup-backend ablation.

The serving engine needs no choice here: every group it builds is a
one-field iSet, served by the interval index on its key field
(:class:`~repro.saxpac.engine.SaxPacEngine`).  The groups of the paper's
l-MGR split (:func:`~repro.analysis.mgr.independent_split`) are
order-independent on up to two fields, and for them
:func:`build_group_index` builds one of three structures by name:

``interval``
    Binary search on a field where the members are pairwise disjoint,
    then a check of the candidate on the group's other fields (Theorem
    2, Fields Reduction).
``segment``
    The two-field segment-tree index.
``linear``
    Vectorized scan over the group members on the group fields — best
    for tiny groups, and the only option past two fields without a
    disjoint field.
``auto``
    Not a structure but the shape rule: fewer than
    :data:`LINEAR_CUTOVER` members → ``linear``, otherwise the group's
    structural default.

The structural default is the interval index when one field is
pairwise disjoint, the segment tree for two fields and a linear scan
otherwise.  A named structure that cannot serve a group falls back to
it, so every name yields a correct index.  Every structure is
decision-identical; only the time/memory profile differs.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..analysis.mgr import Group
from ..core.classifier import Classifier
from .group_engine import (
    GroupIndex,
    LinearGroupIndex,
    _IntervalGroupIndex,
    _TwoFieldGroupIndex,
)

__all__ = [
    "AUTO_BACKEND",
    "BACKENDS",
    "LINEAR_CUTOVER",
    "build_group_index",
    "disjoint_field",
]

#: The per-group shape rule, accepted wherever a structure name is.
AUTO_BACKEND = "auto"

#: The structures :func:`build_group_index` builds by name.
BACKENDS = ("interval", "linear", "segment")

#: Below this many members, the vectorized linear scan wins.
LINEAR_CUTOVER = 16


def disjoint_field(classifier: Classifier, group: Group) -> Optional[int]:
    """The first group field on which the members are pairwise disjoint,
    or None.  Order-independence guarantees disjointness on the field
    *combination*; a single-field group is disjoint on its field by
    definition, and many two-field groups have one separating field."""
    lows, highs = classifier.bounds_arrays()
    members = np.asarray(group.rule_indices, dtype=np.int64)
    for f in group.fields:
        lo = lows[members, f]
        hi = highs[members, f]
        order = np.argsort(lo, kind="stable")
        if np.all(lo[order][1:] > hi[order][:-1]):
            return f
    return None


def build_group_index(
    classifier: Classifier, group: Group, backend: str = AUTO_BACKEND
) -> GroupIndex:
    """Build ``group``'s lookup structure: ``backend`` is one of
    :data:`BACKENDS` or ``auto``.  A structure that cannot serve the
    group gives way to the group's structural default.  The index is
    stamped with its build wall-clock (``build_seconds``) and whether
    it was such a fallback (``backend_fallback``)."""
    if backend != AUTO_BACKEND and backend not in BACKENDS:
        raise ValueError(
            f"unknown lookup backend {backend!r}; expected one of "
            f"{', '.join((AUTO_BACKEND,) + BACKENDS)}"
        )
    key = None
    fallback = False
    if backend == "linear" or (
        backend == AUTO_BACKEND and group.size < LINEAR_CUTOVER
    ):
        chosen = "linear"
    else:
        key = disjoint_field(classifier, group)
        if key is not None:
            structural = "interval"
        elif len(group.fields) == 2:
            structural = "segment"
        else:
            structural = "linear"
        fallback = (backend == "interval" and key is None) or (
            backend == "segment" and len(group.fields) != 2
        )
        chosen = structural if backend == AUTO_BACKEND or fallback else backend
    start = time.perf_counter()
    if chosen == "interval":
        index: GroupIndex = _IntervalGroupIndex(classifier, group, key)
    elif chosen == "segment":
        index = _TwoFieldGroupIndex(classifier, group)
    else:
        index = LinearGroupIndex(classifier, group)
    index.build_seconds = time.perf_counter() - start
    index.backend_fallback = fallback
    return index
