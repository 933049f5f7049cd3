"""Tests for the multi-group software engine (Theorem 3 dataflow)."""

import random

import pytest

from repro.analysis.mgr import Group, l_mgr
from repro.lookup.backends import build_group_index
from repro.lookup.group_engine import LinearGroupIndex, MultiGroupEngine
from conftest import random_classifier


class TestBuildGroupIndex:
    def test_dispatch_by_field_count(self, example3_classifier):
        one = build_group_index(example3_classifier, Group((3, 4), (2,)))
        two = build_group_index(example3_classifier, Group((0, 1, 2), (0, 1)))
        three = build_group_index(
            example3_classifier, Group((0,), (0, 1, 2))
        )
        assert one.fields == (2,)
        assert two.fields == (0, 1)
        assert isinstance(three, LinearGroupIndex)

    def test_probe_only_sees_group_fields(self, example3_classifier):
        index = build_group_index(example3_classifier, Group((3, 4), (2,)))
        # Header matching R4's field 2 but nothing else still probes R4.
        assert index.probe((15, 15, 2)) == 3

    def test_linear_probe(self, example3_classifier):
        index = LinearGroupIndex(example3_classifier, Group((0, 1), (0, 1, 2)))
        assert index.probe((6, 5, 4)) == 0
        assert index.probe((2, 5, 4)) == 1
        assert index.probe((15, 15, 15)) is None


class TestEngineSemantics:
    def test_example3_full_lookup(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        # Figure 4's walkthrough: packet (2, 4, 5) matches R2 and R5;
        # R2 wins by priority.
        assert engine.lookup((2, 4, 5)) == 1

    def test_false_positive_filtered(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        # Header inside R3 on fields {0,1} but outside on field 2: the
        # candidate must fail the false-positive check.
        header = (2, 2, 15)
        assert engine.lookup(header) is None
        assert engine.stats.false_positives >= 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("l", [1, 2])
    def test_equivalent_to_linear_scan(self, seed, l):
        rng = random.Random(seed)
        k = random_classifier(rng, num_rules=30)
        grouping = l_mgr(k, l=l)
        engine = MultiGroupEngine(k, grouping.groups)
        for header in k.sample_headers(200, rng):
            expected = k.match(header)
            got = engine.match(header)
            assert got.index == expected.index

    def test_match_falls_back_to_catch_all(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        result = engine.match((15, 15, 15))
        assert result.rule is example3_classifier.catch_all

    def test_stats_counters(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        engine.lookup((2, 4, 5))
        assert engine.stats.lookups == 1
        assert engine.stats.probes == len(engine.groups)

    def test_num_rules(self, example3_classifier):
        grouping = l_mgr(example3_classifier, l=2)
        engine = MultiGroupEngine(example3_classifier, grouping.groups)
        assert engine.num_rules == 5

