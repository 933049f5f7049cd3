"""Tests for the hybrid SaxPacEngine — the headline deliverable."""

import dataclasses
import random

import pytest

from repro.core import Classifier, make_rule, uniform_schema
from repro.lookup.cascading import CascadingTwoFieldIndex
from repro.saxpac.config import EngineConfig
from repro.saxpac.engine import SaxPacEngine
from repro.tcam.encoding import BinaryRangeEncoder, SrgeRangeEncoder
from repro.tcam.tcam import build_tcam
from repro.workloads.generator import generate_classifier
from conftest import random_classifier


def _churned(classifier: Classifier, seed: int) -> Classifier:
    """``classifier`` with two rules removed and two fresh ones inserted
    — surviving Rule objects are reused, so a rebuild stays incremental."""
    rng = random.Random(seed)
    body = list(classifier.body)
    for index in sorted(rng.sample(range(len(body)), 2), reverse=True):
        del body[index]
    donor = generate_classifier("fw", 64, seed + 1)
    for rule in donor.body[:2]:
        body.insert(rng.randint(0, len(body)), rule)
    return Classifier(classifier.schema, body)


class TestSemanticEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_default_config_matches_linear_scan(self, seed):
        rng = random.Random(seed)
        k = random_classifier(rng, num_rules=35)
        engine = SaxPacEngine(k)
        for header in k.sample_headers(200, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(4))
    def test_srge_encoder(self, seed):
        rng = random.Random(100 + seed)
        k = random_classifier(rng, num_rules=25)
        engine = SaxPacEngine(k, encoder=SrgeRangeEncoder())
        for header in k.sample_headers(150, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(4))
    def test_beta_capped(self, seed):
        rng = random.Random(200 + seed)
        k = random_classifier(rng, num_rules=30)
        engine = SaxPacEngine(k, EngineConfig(max_groups=2))
        assert len(engine.grouping.groups) <= 2
        for header in k.sample_headers(150, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(4))
    def test_min_group_size_folds_to_tcam(self, seed):
        rng = random.Random(300 + seed)
        k = random_classifier(rng, num_rules=30)
        engine = SaxPacEngine(k, EngineConfig(min_group_size=5))
        for group in engine.grouping.groups:
            assert group.size >= 5
        for header in k.sample_headers(150, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(6))
    def test_enforce_cache_still_equivalent(self, seed):
        rng = random.Random(400 + seed)
        k = random_classifier(rng, num_rules=30)
        engine = SaxPacEngine(k, EngineConfig(enforce_cache=True))
        for header in k.sample_headers(200, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(4))
    def test_cascading_structure_equivalent(self, seed):
        """The fractionally-cascaded two-field index, built over each
        two-field group of an engine, answers every probe exactly as the
        group's serving index does."""
        rng = random.Random(600 + seed)
        k = random_classifier(rng, num_rules=30)
        engine = SaxPacEngine(k, EngineConfig(lookup_backend="segment"))
        headers = k.sample_headers(200, rng)
        for header in headers:
            assert engine.match(header).index == k.match(header).index
        two_field = [g for g in engine.software.groups if len(g.fields) == 2]
        assert two_field
        for index in two_field:
            a, b = index.fields
            cascaded = CascadingTwoFieldIndex(
                (k.rules[r].intervals[a], k.rules[r].intervals[b], int(r))
                for r in index.rule_ids
            )
            for header in headers:
                got = cascaded.lookup(header[a], header[b])
                assert got == index.probe(header)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_group_field_budget(self, l):
        rng = random.Random(500 + l)
        k = random_classifier(rng, num_rules=25)
        engine = SaxPacEngine(k, EngineConfig(max_group_fields=l))
        for group in engine.grouping.groups:
            assert len(group.fields) <= l
        for header in k.sample_headers(100, rng):
            assert engine.match(header).index == k.match(header).index

    def test_order_independent_classifier_all_software(
        self, example2_classifier
    ):
        engine = SaxPacEngine(example2_classifier)
        report = engine.report()
        assert report.software_rules == 3
        assert report.tcam_rules == 0

    def test_fully_dependent_goes_to_tcam(self):
        schema = uniform_schema(1, 6)
        # Nested intervals: every pair intersects.
        k = Classifier(
            schema,
            [make_rule([(0, 40)]), make_rule([(0, 30)]), make_rule([(0, 20)])],
        )
        engine = SaxPacEngine(k)
        report = engine.report()
        # Greedy I keeps the first rule; the nested rest goes to D.
        assert report.tcam_rules == 2
        rng = random.Random(1)
        for header in k.sample_headers(50, rng):
            assert engine.match(header).index == k.match(header).index


class TestCacheSkip:
    def test_d_lookup_skipped_on_software_hit(self):
        schema = uniform_schema(1, 6)
        k = Classifier(
            schema,
            [make_rule([(0, 10)]), make_rule([(20, 30)]), make_rule([(5, 25)])],
        )
        engine = SaxPacEngine(k, EngineConfig(enforce_cache=True))
        before = engine.d_lookups_skipped
        hits = 0
        rng = random.Random(2)
        for header in k.sample_headers(100, rng):
            result = engine.match(header)
            assert result.index == k.match(header).index
            if engine.software.lookup(header) is not None:
                hits += 1
        assert engine.d_lookups_skipped - before > 0


class TestReport:
    def test_report_arithmetic(self, example3_classifier):
        engine = SaxPacEngine(example3_classifier)
        report = engine.report()
        assert report.total_rules == 5
        assert report.software_rules + report.tcam_rules == 5
        assert 0.0 <= report.software_fraction <= 1.0
        assert report.tcam_entries <= report.tcam_entries_full
        assert 0.0 <= report.tcam_saving <= 1.0

    def test_group_fields_reported(self, example3_classifier):
        engine = SaxPacEngine(example3_classifier)
        report = engine.report()
        assert len(report.group_fields) == report.num_groups

    def test_saving_grows_with_software_fraction(self):
        rng = random.Random(3)
        k = random_classifier(rng, num_rules=40)
        default = SaxPacEngine(k).report()
        # Forcing everything to TCAM (tiny group budget, huge min size).
        constrained = SaxPacEngine(
            k, EngineConfig(max_groups=1, min_group_size=10**6)
        ).report()
        assert default.tcam_entries <= constrained.tcam_entries


class TestTcamEntryAccounting:
    """``report().tcam_entries`` is counted per rule, not programmed, and
    must equal the rows a programmed TCAM of D would hold."""

    @pytest.mark.parametrize(
        "encoder", [BinaryRangeEncoder(), SrgeRangeEncoder()],
        ids=lambda e: e.name,
    )
    @pytest.mark.parametrize("incremental", [False, True])
    def test_matches_programmed_tcam(self, encoder, incremental):
        classifier = generate_classifier("fw", 500, 3)
        engine = SaxPacEngine(classifier, encoder=encoder)
        if incremental:
            engine = engine.rebuild(_churned(classifier, 5))
            assert engine.build_incremental
        report = engine.report()
        assert report.tcam_rules > 0
        k = engine.classifier
        tcam, _view = build_tcam(
            k, encoder, rule_indices=engine.grouping.ungrouped
        )
        assert report == dataclasses.replace(report, tcam_entries=len(tcam))


class TestNoTcamOnServingPath:
    """Build, rebuild, lookup and reporting never program a TCAM."""

    @pytest.fixture
    def no_tcam(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Tcam was constructed")

        monkeypatch.setattr("repro.tcam.tcam.Tcam.__init__", refuse)

    def test_engine_lifecycle(self, no_tcam):
        classifier = generate_classifier("acl", 400, 4)
        engine = SaxPacEngine(classifier)
        headers = classifier.sample_headers(100, random.Random(6))
        incremental = engine.rebuild(_churned(classifier, 7))
        assert incremental.build_incremental
        full = engine.rebuild(generate_classifier("acl", 300, 8))
        assert not full.build_incremental
        for built in (engine, incremental, full):
            k = built.classifier
            want = [m.index for m in k.match_batch(headers)]
            assert built.match_batch_indices(headers).tolist() == want
            assert [built.match(h).index for h in headers[:20]] == want[:20]
            assert built.report().is_sane()

    def test_runtime_service_with_updates(self, no_tcam):
        from repro.runtime.service import RuntimeService

        classifier = generate_classifier("acl", 200, 9)
        donor = generate_classifier("acl", 8, 10)
        with RuntimeService(classifier) as service:
            inserted = service.insert(donor.body[0])
            assert inserted.accepted
            service.remove(inserted.rule_id)
            headers = classifier.sample_headers(50, random.Random(11))
            k = service.serving_classifier()
            assert service.match_indices(headers).tolist() == [
                m.index for m in k.match_batch(headers)
            ]
            assert service.engine_report() is not None


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(max_group_fields=0)
        with pytest.raises(ValueError):
            EngineConfig(max_groups=0)
        with pytest.raises(ValueError):
            EngineConfig(min_group_size=0)
        with pytest.raises(ValueError):
            EngineConfig(fp_budget=0)
