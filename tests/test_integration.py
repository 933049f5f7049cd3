"""Cross-module integration scenarios at moderate scale.

Each test exercises a full user journey: generate a realistic workload,
run the optimization pipeline, build the runtime structures, and verify
semantics end to end against the reference linear scan.
"""


import pytest

from repro.analysis import (
    fsm,
    greedy_independent_set,
    group_statistics,
    l_mgr,
)
from repro.core import classbench_schema
from repro.saxpac import (
    ClassificationCache,
    DynamicSaxPac,
    EngineConfig,
    SaxPacEngine,
)
from repro.tcam import BinaryRangeEncoder, SrgeRangeEncoder, build_tcam
from repro.workloads import generate_classifier, generate_trace


@pytest.fixture(scope="module", params=["acl", "fw", "ipc", "cisco"])
def workload(request):
    classifier = generate_classifier(request.param, 300, seed=1234)
    trace = generate_trace(classifier, 600, seed=99)
    return request.param, classifier, trace


class TestFullPipeline:
    def test_engine_end_to_end(self, workload):
        style, classifier, trace = workload
        engine = SaxPacEngine(classifier)
        for header in trace:
            assert engine.match(header).index == classifier.match(header).index

    def test_engine_all_knobs(self, workload):
        style, classifier, trace = workload
        engine = SaxPacEngine(
            classifier,
            EngineConfig(
                max_group_fields=2,
                max_groups=4,
                min_group_size=2,
                enforce_cache=True,
            ),
            encoder=SrgeRangeEncoder(),
        )
        for header in trace[:300]:
            assert engine.match(header).index == classifier.match(header).index

    def test_decomposition_fractions_match_paper_band(self, workload):
        style, classifier, trace = workload
        report = SaxPacEngine(classifier).report()
        # The paper's headline: the vast majority of rules leave the TCAM.
        assert report.software_fraction >= 0.8
        assert report.tcam_saving >= 0.5

    def test_pure_tcam_agrees(self, workload):
        style, classifier, trace = workload
        _tcam, view = build_tcam(classifier, BinaryRangeEncoder())
        for header in trace[:200]:
            expected = classifier.match(header)
            got = view.match_index(header)
            if expected.rule is classifier.catch_all:
                assert got is None
            else:
                assert got == expected.index

    def test_cache_agrees_and_hits(self, workload):
        style, classifier, trace = workload
        cache = ClassificationCache(classifier)
        for header in trace:
            assert cache.match(header).index == classifier.match(header).index
        # Rule-targeted traffic should mostly hit the cached I part.
        assert cache.stats.hit_rate > 0.4


class TestOptimizationPipeline:
    def test_analysis_chain(self, workload):
        style, classifier, trace = workload
        independent = greedy_independent_set(classifier)
        assert independent.size / len(classifier.body) >= 0.8
        sub = classifier.subset(independent.rule_indices)
        reduction = fsm(sub)
        assert 1 <= len(reduction.kept_fields) <= classifier.num_fields
        grouping = l_mgr(classifier, l=2)
        stats = group_statistics(grouping)
        assert stats.covered_rules == len(classifier.body)
        assert stats.groups_for_95 <= stats.num_groups

    def test_rebuild_from_scratch_is_deterministic(self, workload):
        style, classifier, trace = workload
        a = SaxPacEngine(classifier).report()
        b = SaxPacEngine(classifier).report()
        assert a == b


class TestDynamicMirrorsStatic:
    def test_incremental_build_matches_reference(self, workload):
        style, classifier, trace = workload
        dyn = DynamicSaxPac(classbench_schema(), max_groups=10, fp_budget=2)
        for rule in classifier.body:
            dyn.insert(rule)
        reference = dyn.to_classifier()
        for header in trace[:300]:
            expected = reference.match(header)
            got = dyn.match_id(header)
            if got is None:
                assert expected.rule is reference.catch_all
            else:
                # A full-wildcard body rule doubles as the catch-all, so
                # compare rules rather than assuming catch-all => miss.
                assert dyn.rule(got) == expected.rule

    def test_dynamic_software_fraction(self, workload):
        style, classifier, trace = workload
        dyn = DynamicSaxPac(classbench_schema(), fp_budget=2)
        for rule in classifier.body:
            dyn.insert(rule)
        assert dyn.software_size / len(dyn) >= 0.8
