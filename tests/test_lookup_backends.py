"""The lookup backends of the paper's ablation: the shape rule, the
fallback to a group's structural default, the interval index on a
disjoint key field, and the decision-identity contract.

The load-bearing property: every structure — named or picked by the
shape rule — answers the paper's l-MGR groups exactly as a first-match
scan of the group members, and the serving engine, which serves every
one-field iSet with the interval index, exactly as the linear reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.mgr import Group, independent_split
from repro.core import Classifier, make_rule, uniform_schema
from repro.core.packet import headers_array
from repro.lookup.backends import (
    BACKENDS,
    LINEAR_CUTOVER,
    build_group_index,
    disjoint_field,
)
from repro.lookup.group_engine import LinearGroupIndex, MultiGroupEngine
from repro.runtime.batch import linear_match_batch
from repro.saxpac.engine import SaxPacEngine
from conftest import assert_groups_agree
from strategies import classifiers, corner_headers_for

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every name :func:`build_group_index` accepts.
NAMES = BACKENDS + ("auto",)

WIDTH = 16
FULL = (1 << WIDTH) - 1


def _disjoint_classifier(n: int) -> Classifier:
    """Two 16-bit fields; body rules pairwise disjoint on field 0 (rule
    ``i`` owns ``[4i, 4i+2]``), full-range on field 1 — so any grouping
    admits the interval backend keyed on field 0."""
    schema = uniform_schema(2, WIDTH)
    body = [make_rule([(4 * i, 4 * i + 2), (0, FULL)]) for i in range(n)]
    return Classifier(schema, body)


def _overlapping_group():
    """A 2-field group disjoint only on the field *combination* — no
    single field is pairwise disjoint, so interval cannot serve it."""
    schema = uniform_schema(2, WIDTH)
    k = Classifier(
        schema,
        [
            make_rule([(0, 1), (0, 1)]),
            make_rule([(0, 1), (2, 3)]),
            make_rule([(2, 3), (0, 1)]),
        ],
    )
    return k, Group((0, 1, 2), (0, 1))


class TestRegistry:
    """The structure names :func:`build_group_index` accepts."""

    def test_names(self):
        assert BACKENDS == ("interval", "linear", "segment")
        # Each named structure builds itself on a group it can serve.
        k = _disjoint_classifier(LINEAR_CUTOVER)
        group = Group(tuple(range(LINEAR_CUTOVER)), (0, 1))
        for name in BACKENDS:
            index = build_group_index(k, group, name)
            assert index.backend == name and not index.backend_fallback

    def test_unknown_backend_raises_with_known_names(self):
        k = _disjoint_classifier(4)
        with pytest.raises(ValueError, match="linear"):
            build_group_index(k, Group(tuple(range(4)), (0,)), "btree")


class TestBuildWithBackend:
    def test_stamps_backend_identity(self):
        k = _disjoint_classifier(8)
        index = build_group_index(k, Group(tuple(range(8)), (0,)),
                                  "interval")
        assert index.backend == "interval"
        assert not index.backend_fallback
        assert index.build_seconds >= 0.0
        assert len(index) == 8
        assert index.memory_items() > index.rule_ids.size

    def test_unsupported_backend_falls_back_structurally(self):
        k = _disjoint_classifier(8)
        one_field = Group(tuple(range(8)), (0,))
        index = build_group_index(k, one_field, "segment")
        assert index.backend == "interval"
        assert index.backend_fallback

    def test_interval_needs_a_disjoint_field(self):
        k, group = _overlapping_group()
        assert disjoint_field(k, group) is None
        index = build_group_index(k, group, "interval")
        assert index.backend == "segment"
        assert index.backend_fallback


class TestSelector:
    """The ``auto`` shape rule, :func:`build_group_index`'s default."""

    @staticmethod
    def _auto(k, group) -> str:
        index = build_group_index(k, group)
        assert not index.backend_fallback
        return index.backend

    def test_tiny_groups_stay_linear(self):
        k = _disjoint_classifier(LINEAR_CUTOVER - 1)
        group = Group(tuple(range(LINEAR_CUTOVER - 1)), (0, 1))
        assert self._auto(k, group) == "linear"

    def test_mid_size_groups_pick_structural(self):
        """A 16-63-member two-field group with a disjoint field picks
        the interval index keyed on that field."""
        n = LINEAR_CUTOVER + 4
        k = _disjoint_classifier(n)
        group = Group(tuple(range(n)), (0, 1))
        assert disjoint_field(k, group) == 0
        assert self._auto(k, group) == "interval"
        assert self._auto(k, Group(tuple(range(n)), (0,))) == "interval"

    def test_disjoint_groups_pick_interval(self):
        n = 4 * LINEAR_CUTOVER
        k = _disjoint_classifier(n)
        assert self._auto(k, Group(tuple(range(n)), (0, 1))) == "interval"
        # Disjoint only on the field *combination*: the segment tree
        # serves two fields, a linear scan serves more.
        schema = uniform_schema(3, WIDTH)
        body = [
            make_rule([(i % 4, i % 4), (i // 4, i // 4), (0, FULL)])
            for i in range(LINEAR_CUTOVER)
        ]
        grid = Classifier(schema, body)
        members = tuple(range(LINEAR_CUTOVER))
        assert self._auto(grid, Group(members, (0, 1))) == "segment"
        assert self._auto(grid, Group(members, (0, 1, 2))) == "linear"


class TestIntervalGroupIndex:
    """The interval index on a two-field group keyed on its disjoint
    field: a candidate still means a match on *all* group fields."""

    def _narrow_classifier(self, n: int) -> Classifier:
        """Like :func:`_disjoint_classifier`, but rule ``i`` also needs
        field 1 in ``[i, i + 8]`` — so a key-field hit can miss on the
        other group field."""
        schema = uniform_schema(2, WIDTH)
        body = [make_rule([(4 * i, 4 * i + 2), (i, i + 8)]) for i in range(n)]
        return Classifier(schema, body)

    def test_matches_linear_scan_on_sweep(self):
        n = 96
        k = self._narrow_classifier(n)
        group = Group(tuple(range(n)), (0, 1))
        index = build_group_index(k, group, "interval")
        assert index.backend == "interval" and not index.backend_fallback
        linear = LinearGroupIndex(k, group)
        headers = [
            (v, w) for v in range(0, 4 * n + 4) for w in (0, v // 4, 200)
        ]
        harr = headers_array(headers, k.schema)
        got = index.probe_batch(harr)
        want = linear.probe_batch(harr)
        assert np.array_equal(got, want)
        assert (got >= 0).any() and (got < 0).any()
        for header in headers[:: max(1, len(headers) // 64)]:
            assert index.probe(header) == linear.probe(header)

    def test_key_hit_that_misses_another_field_counts_no_candidate(self):
        n = 32
        k = self._narrow_classifier(n)
        group = Group(tuple(range(n)), (0, 1))
        index = build_group_index(k, group, "interval")
        header = (4 * 5 + 1, 200)  # inside rule 5 on field 0 only
        assert index.probe(header) is None
        # One header takes the per-header path, a full batch the
        # vectorized one; both must drop the key-field hit.
        for count in (1, 2 * index.VECTOR_MIN_BATCH):
            headers = [header] * count
            harr = headers_array(headers, k.schema)
            assert (index.probe_batch(harr) == -1).all()
            software = MultiGroupEngine(k, [group], backend="interval")
            assert [g.backend for g in software.groups] == ["interval"]
            software.lookup_batch(harr)
            assert software.stats.candidates == 0

    def test_tombstones_mask_hits(self):
        n = 80
        k = self._narrow_classifier(n)
        group = Group(tuple(range(n)), (0, 1))
        index = build_group_index(k, group, "interval")
        dead = 5
        ids = index.rule_ids.copy()
        ids[dead] = -1
        view = index.reindexed(ids)
        header = (4 * dead + 1, dead)
        assert index.probe(header) == dead
        assert view.probe(header) is None
        headers = [(4 * i + 1, i) for i in range(n)]
        harr = headers_array(headers, k.schema)
        want = np.arange(n)
        assert np.array_equal(index.probe_batch(harr), want)
        want[dead] = -1
        assert np.array_equal(view.probe_batch(harr), want)
        one = harr[dead:dead + 1]
        assert view.probe_batch(one)[0] == -1


class TestLinearGroupIndex:
    def test_bounds_straddling_2_63_compare_exactly(self):
        """Bounds of a 64-bit field above 2**63 must not round through
        float64: a header one below a low bound, or one above a high
        bound near 2**64, misses on both the batch and the scalar path."""
        top = (1 << 64) - 1
        half = 1 << 63
        k = Classifier(
            uniform_schema(2, 64),
            [
                make_rule([(half + 1, top - 1), (0, top)]),
                make_rule([(0, half - 1), (0, top)]),
            ],
        )
        index = LinearGroupIndex(k, Group((0, 1), (0,)))
        headers = [
            (half, 0), (top, 0), (half + 1, 0), (top - 1, 0),
            (half - 1, 0), (0, 0),
        ]
        want = [-1, -1, 0, 0, 1, 1]
        got = index.probe_batch(headers_array(headers, k.schema))
        assert got.tolist() == want
        assert [index.probe(h) for h in headers] == [
            None if w < 0 else w for w in want
        ]


class TestEngineEquivalence:
    @given(st.data())
    @_SETTINGS
    def test_all_backends_byte_identical_to_linear_reference(self, data):
        k = data.draw(classifiers(max_rules=14))
        headers = [data.draw(corner_headers_for(k)) for _ in range(10)]
        groups = independent_split(k).groups
        for backend in NAMES:
            software = MultiGroupEngine(k, groups, backend=backend)
            assert_groups_agree(software, headers)
        want = [m.index for m in linear_match_batch(k, headers)]
        got = [m.index for m in SaxPacEngine(k).match_batch(headers)]
        assert got == want

    def test_forced_interval_serves_big_disjoint_group(self):
        """The engine's one-field iSets are always interval indexes."""
        n = 128
        k = _disjoint_classifier(n)
        engine = SaxPacEngine(k)
        assert [g.backend for g in engine.software.groups] == ["interval"]
        headers = [(4 * i + 1, 7) for i in range(n)] + [(4 * n + 9, 0)]
        want = [m.index for m in linear_match_batch(k, headers)]
        got = [m.index for m in engine.match_batch(headers)]
        assert got == want


class TestRebuildRepick:
    def test_carried_group_keeps_reindexed_view_on_rebuild(self):
        """Carried groups keep their structure as a reindexed view, even
        when churn shrinks them below the linear cutover."""
        n = LINEAR_CUTOVER + 2
        k = _disjoint_classifier(n)
        engine = SaxPacEngine(k)
        assert engine.software.groups[0].backend == "interval"
        shrunk = Classifier(k.schema, k.body[: LINEAR_CUTOVER - 1])
        rebuilt = engine.rebuild(shrunk)
        assert rebuilt.build_incremental
        group = rebuilt.software.groups[0]
        assert group.backend == "interval"
        assert group._key_lo is engine.software.groups[0]._key_lo
        headers = [(4 * i + 1, 3) for i in range(n)]
        want = [m.index for m in linear_match_batch(shrunk, headers)]
        got = [m.index for m in rebuilt.match_batch(headers)]
        assert got == want

    def test_forced_backend_survives_rebuild(self):
        """The interval index the engine builds on every group survives
        a rebuild: a carried group extended by an added rule and a group
        the rebuild adds are interval indexes too."""
        n = 80
        k = _disjoint_classifier(n)
        engine = SaxPacEngine(k)
        assert [g.backend for g in engine.software.groups] == ["interval"]
        # One rule fits the carried group's key-field gaps; the next
        # LINEAR_CUTOVER overlap the carried group on field 0 and are
        # pairwise disjoint on field 1, so they form a new group.
        fits = make_rule([(4 * n, 4 * n + 2), (0, 9)])
        fresh = [
            make_rule([(0, 4 * n), (2 * i, 2 * i)])
            for i in range(LINEAR_CUTOVER)
        ]
        grown = Classifier(k.schema, list(k.body) + [fits] + fresh)
        rebuilt = engine.rebuild(grown)
        assert rebuilt.build_incremental
        groups = rebuilt.software.groups
        assert [g.backend for g in groups] == ["interval", "interval"]
        assert [g.fields for g in groups] == [(0,), (1,)]
        assert len(groups[0]) == n + 1
        headers = [(4 * i + 1, 3) for i in range(n + 1)]
        # Field 0 in a gap of the carried group: only a new rule matches.
        headers += [(4 * i + 3, 2 * i) for i in range(LINEAR_CUTOVER)]
        want = [m.index for m in linear_match_batch(grown, headers)]
        got = [m.index for m in rebuilt.match_batch(headers)]
        assert got == want


class TestTelemetryCounters:
    def test_backend_probe_counters(self):
        """Group probes count under ``groups.*`` and ``engine.*``, the
        names the served-stack benchmark reads; no counter is kept per
        lookup backend."""
        from repro.runtime.telemetry import Telemetry

        n = LINEAR_CUTOVER + 8
        k = _disjoint_classifier(n)
        recorder = Telemetry()
        engine = SaxPacEngine(k, recorder=recorder)
        headers = [(4 * i + 1, 3) for i in range(32)]
        engine.match_batch(headers)
        counters = recorder.snapshot().counters
        assert counters["engine.lookups"] == 32
        assert counters["groups.probes"] == 32
        assert counters["groups.fp_checks"] == n
        assert counters["engine.software_hits"] == n
        assert not [c for c in counters if c.startswith("lookup.backend.")]
