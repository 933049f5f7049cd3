"""Software lookup structures: interval maps, segment trees, the group
engine, and :mod:`repro.lookup.backends`, which builds a group's
structure by name for the paper's lookup-backend ablation.

The paper-ablation baselines — :mod:`.cascading` (fractional cascading),
:mod:`.decision_tree` and :mod:`.tuple_space` — are imported from their
own modules, so the serving path never loads them."""

from .group_engine import (
    GroupIndex,
    LinearGroupIndex,
    MultiGroupEngine,
)
from .backends import build_group_index
from .interval_map import DisjointIntervalMap
from .segment_tree import FrozenSegmentTree, SegmentTree
from .two_field import TwoFieldIndex

__all__ = [
    "DisjointIntervalMap",
    "FrozenSegmentTree",
    "GroupIndex",
    "LinearGroupIndex",
    "MultiGroupEngine",
    "SegmentTree",
    "TwoFieldIndex",
    "build_group_index",
]
