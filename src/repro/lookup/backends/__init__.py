"""Lookup backends for the per-group probe structures.

SAX-PAC reduces classification to one range lookup per order-independent
group; which data structure serves that lookup follows from the group's
shape.  This package holds the structures as a registry of
:class:`LookupBackend` strategies:

``interval``
    Binary search on a field where the members are pairwise disjoint,
    then a check of the candidate on the group's other fields — any
    group that has such a field (Theorem 2, Fields Reduction).
``segment``
    The two-field segment-tree index.
``linear``
    Vectorized scan over the group members on the group fields — best
    for tiny groups, and the only option past two fields without a
    disjoint field.
``auto``
    Not a backend but the per-group shape rule of
    :func:`~.selector.select_backend`: fewer than 16 members → linear;
    a disjoint field → interval; two fields → segment; else linear.

A backend **builds** :class:`~repro.lookup.group_engine.GroupIndex`
instances; the built index serves batched lookups through
``probe_batch`` (the engine-facing ``lookup_batch``) and reports its
memory footprint and build cost through
:meth:`~repro.lookup.group_engine.GroupIndex.backend_report`.
The registry (:func:`register_backend`) is the extension seam for later
work — shared-memory resident structures and per-tenant backends plug in
without touching the engine.
"""

from .adapters import IntervalBackend, LinearBackend, SegmentBackend
from .registry import (
    AUTO_BACKEND,
    LookupBackend,
    backend_names,
    build_with_backend,
    get_backend,
    register_backend,
)
from .selector import disjoint_field, select_backend, structural_backend_name

__all__ = [
    "AUTO_BACKEND",
    "IntervalBackend",
    "LinearBackend",
    "LookupBackend",
    "SegmentBackend",
    "backend_names",
    "build_with_backend",
    "disjoint_field",
    "get_backend",
    "register_backend",
    "select_backend",
    "structural_backend_name",
]
