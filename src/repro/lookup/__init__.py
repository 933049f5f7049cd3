"""Software lookup structures: interval maps, segment trees, group
engine, and the pluggable backend registry (:mod:`repro.lookup.backends`).

The paper-ablation baselines — :mod:`.cascading` (fractional cascading),
:mod:`.decision_tree` and :mod:`.tuple_space` — are imported from their
own modules, so the serving path never loads them."""

from .group_engine import (
    GroupIndex,
    LinearGroupIndex,
    MultiGroupEngine,
    build_group_index,
)
from .backends import (
    AUTO_BACKEND,
    LookupBackend,
    backend_names,
    build_with_backend,
    get_backend,
    register_backend,
    select_backend,
)
from .interval_map import DisjointIntervalMap
from .segment_tree import FrozenSegmentTree, SegmentTree
from .two_field import TwoFieldIndex

__all__ = [
    "AUTO_BACKEND",
    "DisjointIntervalMap",
    "FrozenSegmentTree",
    "GroupIndex",
    "LinearGroupIndex",
    "LookupBackend",
    "MultiGroupEngine",
    "SegmentTree",
    "TwoFieldIndex",
    "backend_names",
    "build_group_index",
    "build_with_backend",
    "get_backend",
    "register_backend",
    "select_backend",
]
