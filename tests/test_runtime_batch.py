"""Tests for repro.runtime.batch: dispatch, linear scan, BatchRunner."""

import random

import pytest

from conftest import random_classifier
from repro.runtime.batch import (
    BatchRunner,
    box_results,
    iter_batches,
    linear_match_batch,
    match_batch,
)
from repro.runtime.telemetry import Telemetry
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.traces import generate_trace


@pytest.fixture
def setup():
    rng = random.Random(7)
    classifier = random_classifier(rng, num_rules=40)
    engine = SaxPacEngine(classifier)
    trace = generate_trace(classifier, 300, seed=11)
    return classifier, engine, trace


class _MatchOnly:
    """Engine with only a single-packet interface (no match_batch)."""

    def __init__(self, classifier):
        self.classifier = classifier
        # Not a method, so getattr(engine, "match_batch") misses.

    def match(self, header):
        return self.classifier.match(header)


class TestDispatch:
    def test_native_batch_path(self, setup):
        classifier, engine, trace = setup
        got = match_batch(engine, trace)
        want = [classifier.match(h) for h in trace]
        assert [r.index for r in got] == [r.index for r in want]

    def test_fallback_loop_path(self, setup):
        classifier, _, trace = setup
        got = match_batch(_MatchOnly(classifier), trace)
        want = [classifier.match(h) for h in trace]
        assert [r.index for r in got] == [r.index for r in want]


class TestLinearMatchBatch:
    def test_matches_reference(self, setup):
        classifier, _, trace = setup
        got = linear_match_batch(classifier, trace)
        want = classifier.match_batch(trace)
        assert [r.index for r in got] == [r.index for r in want]

    def test_empty_headers(self, setup):
        classifier, _, _ = setup
        assert linear_match_batch(classifier, []) == []

    def test_empty_body_hits_catch_all(self):
        from repro.core import Classifier, uniform_schema

        classifier = Classifier(uniform_schema(2, 4), [])
        results = linear_match_batch(classifier, [(0, 0), (15, 15)])
        assert all(r.index == 0 for r in results)


class TestBoxResults:
    def test_boxes_against_the_given_classifier(self, setup):
        classifier, engine, trace = setup
        indices = engine.match_batch_indices(trace)
        results = box_results(classifier, indices)
        assert [r.index for r in results] == indices.tolist()
        assert all(
            r.rule is classifier.rules[r.index] for r in results
        )
        assert all(type(r.index) is int for r in results)

    def test_accepts_lists_and_empty_input(self, setup):
        classifier, _, _ = setup
        assert box_results(classifier, []) == []
        (result,) = box_results(classifier, [0])
        assert result.rule is classifier.rules[0]


class TestIterBatches:
    def test_partitions_preserve_order(self):
        trace = list(range(10))
        batches = list(iter_batches(trace, 3))
        assert batches == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_batch_larger_than_trace(self):
        assert list(iter_batches([1, 2], 100)) == [[1, 2]]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iter_batches([1], 0))


class TestBatchRunner:
    def test_matches_single_path(self, setup):
        classifier, engine, trace = setup
        runner = BatchRunner(engine=engine, batch_size=64)
        got = runner.run(trace)
        want = [classifier.match(h) for h in trace]
        assert [r.index for r in got] == [r.index for r in want]

    def test_engine_source_reread_per_batch(self, setup):
        classifier, engine, trace = setup
        calls = []

        def source():
            calls.append(1)
            return engine

        runner = BatchRunner(engine_source=source, batch_size=100)
        runner.run(trace)  # 300 packets -> 3 batches
        assert len(calls) == 3

    def test_requires_exactly_one_source(self, setup):
        _, engine, _ = setup
        with pytest.raises(ValueError):
            BatchRunner()
        with pytest.raises(ValueError):
            BatchRunner(engine=engine, engine_source=lambda: engine)

    def test_invalid_batch_size(self, setup):
        _, engine, _ = setup
        with pytest.raises(ValueError):
            BatchRunner(engine=engine, batch_size=0)

    def test_telemetry_counters(self, setup):
        _, engine, trace = setup
        tel = Telemetry()
        BatchRunner(engine=engine, batch_size=100, recorder=tel).run(trace)
        snap = tel.snapshot()
        assert snap.counter("runtime.batches") == 3
        assert snap.counter("runtime.packets") == len(trace)
        assert snap.latencies["runtime.batch"].count == 3
