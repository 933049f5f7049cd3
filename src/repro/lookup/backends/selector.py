"""Per-group backend selection from the group's shape (the ``auto``
policy).

Which structure serves a group follows from its size and fields alone:

* fewer than :data:`LINEAR_CUTOVER` members → ``linear`` (the vectorized
  scan has no build cost and the smallest constants);
* a field on which the members are pairwise disjoint → ``interval``,
  keyed on that field.  Theorem 2 (Fields Reduction) says such a group
  needs a lookup on that field only, plus the false-positive check on
  the other fields;
* otherwise two fields → ``segment``;
* otherwise → ``linear``.

The last three steps are :func:`structural_backend_name`, which is also
the fallback when a forced backend cannot serve a group.
The pick is deterministic given (classifier, group), so two builds of
the same state pick the same backends.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...analysis.mgr import Group
from ...core.classifier import Classifier

__all__ = [
    "LINEAR_CUTOVER",
    "disjoint_field",
    "select_backend",
    "structural_backend_name",
]

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


def structural_backend_name(classifier: Classifier, group: Group) -> str:
    """The structure a group's shape calls for: the interval index when
    one field is pairwise disjoint (Theorem 2 reduces the lookup to that
    field), the segment tree for two fields, a linear scan otherwise."""
    if disjoint_field(classifier, group) is not None:
        return "interval"
    if len(group.fields) == 2:
        return "segment"
    return "linear"


def select_backend(classifier: Classifier, group: Group) -> str:
    """Pick a backend name for ``group`` from its shape."""
    if group.size < LINEAR_CUTOVER:
        return "linear"
    return structural_backend_name(classifier, group)
