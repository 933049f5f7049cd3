"""Tests for repro.runtime.shard: chunking, merge order, thread mode
(shm mode lives in test_runtime_shm.py)."""

import random

import numpy as np
import pytest

from conftest import random_classifier
from repro.runtime.shard import ShardedRuntime, default_num_shards
from repro.runtime.telemetry import Telemetry
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.traces import generate_trace


@pytest.fixture
def setup():
    rng = random.Random(21)
    classifier = random_classifier(rng, num_rules=40)
    engine = SaxPacEngine(classifier)
    trace = generate_trace(classifier, 400, seed=5)
    return classifier, engine, trace


class TestConstruction:
    def test_default_num_shards_positive(self):
        assert default_num_shards() >= 1

    def test_requires_exactly_one_source(self, setup):
        classifier, engine, _ = setup
        with pytest.raises(ValueError):
            ShardedRuntime()
        with pytest.raises(ValueError):
            ShardedRuntime(engine=engine, classifier=classifier)

    def test_rejects_unknown_mode(self, setup):
        _, engine, _ = setup
        with pytest.raises(ValueError):
            ShardedRuntime(engine=engine, mode="fiber")

    def test_rejects_process_mode_naming_valid_modes(self, setup):
        _, engine, _ = setup
        with pytest.raises(ValueError, match="thread, shm"):
            ShardedRuntime(engine=engine, mode="process")

    def test_rejects_nonpositive_shards(self, setup):
        _, engine, _ = setup
        with pytest.raises(ValueError):
            ShardedRuntime(engine=engine, num_shards=0)


class TestThreadMode:
    def test_matches_unsharded(self, setup):
        classifier, engine, trace = setup
        want = [r.index for r in engine.match_batch(trace)]
        with ShardedRuntime(engine=engine, num_shards=3) as sharded:
            assert sharded.match_indices(trace).tolist() == want

    def test_match_batch_materializes_results(self, setup):
        classifier, engine, trace = setup
        with ShardedRuntime(engine=engine, num_shards=3) as sharded:
            results = sharded.match_batch(trace[:50])
        for header, result in zip(trace[:50], results):
            want = classifier.match(header)
            assert result.index == want.index
            assert result.rule is want.rule

    def test_batch_smaller_than_shards(self, setup):
        classifier, engine, trace = setup
        with ShardedRuntime(engine=engine, num_shards=8) as sharded:
            got = sharded.match_indices(trace[:3])
        assert got.tolist() == [classifier.match(h).index for h in trace[:3]]

    def test_empty_batch(self, setup):
        _, engine, _ = setup
        with ShardedRuntime(engine=engine, num_shards=2) as sharded:
            got = sharded.match_indices([])
        assert got.dtype == np.int64 and got.tolist() == []

    def test_from_classifier(self, setup):
        classifier, engine, trace = setup
        with ShardedRuntime(classifier=classifier, num_shards=2) as sharded:
            got = sharded.match_indices(trace[:100])
        want = [r.index for r in engine.match_batch(trace[:100])]
        assert got.tolist() == want

    def test_engine_source_sees_swaps(self, setup):
        classifier, engine, trace = setup
        engines = {"current": engine}
        with ShardedRuntime(
            engine_source=lambda: engines["current"], num_shards=2
        ) as sharded:
            before = sharded.match_indices(trace[:100])
            # Swap in a fresh replica mid-stream; shards must observe it.
            engines["current"] = SaxPacEngine(classifier)
            after = sharded.match_indices(trace[:100])
        assert before.tolist() == after.tolist()  # same rules, new engine

    def test_telemetry(self, setup):
        _, engine, trace = setup
        tel = Telemetry()
        with ShardedRuntime(
            engine=engine, num_shards=4, recorder=tel
        ) as sharded:
            sharded.match_indices(trace)
        snap = tel.snapshot()
        assert snap.counter("shard.batches") == 1
        assert snap.counter("shard.packets") == len(trace)
        assert snap.counter("shard.chunks") == 4

    def test_close_idempotent(self, setup):
        _, engine, _ = setup
        sharded = ShardedRuntime(engine=engine, num_shards=2)
        sharded.close()
        sharded.close()


class TestThreadModeFoldBack:
    def test_replica_engine_telemetry_folds_back(self, setup):
        # The bug this guards: deep-copied replicas used to record into
        # private recorder copies whose data vanished.
        classifier, engine, trace = setup
        tel = Telemetry()
        with ShardedRuntime(
            engine=engine, num_shards=3, recorder=tel
        ) as sharded:
            sharded.match_indices(trace)
            sharded.collect()
            snap = tel.snapshot()
        assert snap.counter("engine.lookups") == len(trace)
        assert "engine.match_batch" in snap.latencies

    def test_collect_is_idempotent(self, setup):
        _, engine, trace = setup
        tel = Telemetry()
        with ShardedRuntime(
            engine=engine, num_shards=2, recorder=tel
        ) as sharded:
            sharded.match_indices(trace)
            sharded.collect()
            sharded.collect()
        assert tel.counter("engine.lookups") == len(trace)

    def test_close_restores_original_recorder(self, setup):
        _, engine, _ = setup
        original = engine.recorder
        sharded = ShardedRuntime(
            engine=engine, num_shards=2, recorder=Telemetry()
        )
        assert engine.recorder is not original  # rebound while sharded
        sharded.close()
        assert engine.recorder is original

    def test_replica_heat_lands_in_shared_profiler(self, setup):
        from repro.obs import Observability

        _, engine, trace = setup
        obs = Observability.create(tracing=False, heat=True)
        with ShardedRuntime(
            engine=engine, num_shards=3, recorder=obs.recorder
        ) as sharded:
            sharded.match_indices(trace)
        assert obs.heat.seen_packets == len(trace)

    def test_chunk_spans_nest_under_caller(self, setup):
        from repro.obs import Observability

        _, engine, trace = setup
        obs = Observability.create(tracing=True, heat=False)
        with ShardedRuntime(
            engine=engine, num_shards=2, recorder=obs.recorder
        ) as sharded:
            with obs.tracer.span("batch") as batch:
                sharded.match_indices(trace[:50])
        spans = obs.tracer.spans()
        chunks = [s for s in spans if s.name == "shard.chunk"]
        assert chunks, "expected shard.chunk spans"
        assert all(s.parent_id == batch.span_id for s in chunks)
        assert all(s.trace_id == batch.trace_id for s in chunks)

