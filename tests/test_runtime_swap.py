"""Tests for repro.runtime.swap: rebuilds, atomic swaps, degradation."""

import random

import numpy as np
import pytest

from conftest import random_classifier
from repro.core import make_rule
from repro.runtime.swap import HotSwapRuntime, LinearFallback, UpdateRecord
from repro.runtime.telemetry import Telemetry
from repro.saxpac.engine import SaxPacEngine
from repro.saxpac.updates import DynamicSaxPac
from repro.workloads.traces import generate_trace


@pytest.fixture
def setup():
    rng = random.Random(99)
    classifier = random_classifier(rng, num_rules=30)
    trace = generate_trace(classifier, 200, seed=3)
    return classifier, trace


def _reference(runtime, trace):
    """Linear-scan ground truth against the runtime's current snapshot."""
    snapshot = runtime.snapshot_classifier()
    return [snapshot.match(h).index for h in trace]


class TestConstruction:
    def test_from_classifier(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        assert len(runtime) == len(classifier.body)
        assert not runtime.degraded
        assert runtime.generation == 1  # the initial build counts

    def test_from_dynamic_state(self, setup):
        classifier, trace = setup
        dyn = DynamicSaxPac(classifier.schema)
        for rule in classifier.body:
            dyn.insert(rule)
        runtime = HotSwapRuntime(dyn)
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)

    def test_rejects_other_sources(self):
        with pytest.raises(TypeError):
            HotSwapRuntime(["not", "a", "classifier"])


class TestServing:
    def test_matches_linear_reference(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)
        # Single-packet path agrees with the batch path.
        singles = [runtime.match(h).index for h in trace[:50]]
        assert singles == got[:50]

    def test_classify_batch_returns_actions(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        actions = runtime.classify_batch(trace[:20])
        snapshot = runtime.snapshot_classifier()
        assert actions == [
            snapshot.match(h).rule.action for h in trace[:20]
        ]


class TestUpdates:
    def test_insert_serves_after_swap(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        before_gen = runtime.generation
        width = classifier.schema[0].width
        top = (1 << width) - 1
        report = runtime.insert(
            make_rule([(0, top)] * classifier.num_fields, name="new")
        )
        assert report.accepted
        assert runtime.generation > before_gen
        assert len(runtime) == len(classifier.body) + 1
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)

    def test_remove_and_modify(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        victim = runtime.update_log  # empty so far
        assert victim == []
        # Remove the first dynamic rule (ids assigned in insert order).
        runtime.remove(0)
        assert len(runtime) == len(classifier.body) - 1
        replacement = classifier.body[5]
        runtime.modify(1, replacement)
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)
        kinds = [record.kind for record in runtime.update_log]
        assert kinds == ["remove", "modify"]
        assert all(isinstance(r, UpdateRecord) for r in runtime.update_log)

    def test_update_log_records_inserts(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier)
        rule = make_rule([(0, 1)] * classifier.num_fields)
        runtime.insert(rule)
        assert runtime.update_log[-1].kind == "insert"
        assert runtime.update_log[-1].rule is rule


class TestDegradation:
    def test_failed_rebuild_swaps_in_fallback(self, setup):
        classifier, trace = setup

        def broken_builder(snapshot):
            raise RuntimeError("no memory for you")

        tel = Telemetry()
        runtime = HotSwapRuntime(
            classifier, builder=broken_builder, recorder=tel
        )
        assert runtime.degraded
        assert isinstance(runtime.engine, LinearFallback)
        assert tel.counter("swap.rebuild_failures") == 1
        assert tel.counter("swap.fallback_swaps") == 1
        # Correctness survives degradation.
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)
        singles = [runtime.match(h).index for h in trace[:30]]
        assert singles == got[:30]
        # The fallback speaks the runtime's one engine call.
        indices = runtime.engine.match_batch_indices(trace)
        assert indices.dtype == np.int64 and indices.tolist() == got

    def test_recovers_on_next_good_rebuild(self, setup):
        classifier, trace = setup
        fail_first = {"remaining": 1}

        def flaky_builder(snapshot):
            if fail_first["remaining"]:
                fail_first["remaining"] -= 1
                raise RuntimeError("transient")
            return SaxPacEngine(snapshot)

        runtime = HotSwapRuntime(classifier, builder=flaky_builder)
        assert runtime.degraded
        runtime.rebuild(wait=True)
        assert not runtime.degraded
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)


class TestBackgroundRebuild:
    def test_flush_drains_pending_swap(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier, background=True)
        gen = runtime.generation
        rule = make_rule([(0, 2)] * classifier.num_fields)
        runtime.insert(rule)
        runtime.flush()
        assert runtime.generation > gen
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)

    def test_coalesces_many_updates(self, setup):
        classifier, trace = setup
        runtime = HotSwapRuntime(classifier, background=True)
        for i in range(10):
            runtime.insert(make_rule([(i, i + 1)] * classifier.num_fields))
        runtime.flush()
        # Coalescing means at most one swap per update, usually far fewer,
        # but the final state must reflect every insert.
        assert len(runtime) == len(classifier.body) + 10
        got = [r.index for r in runtime.match_batch(trace)]
        assert got == _reference(runtime, trace)
