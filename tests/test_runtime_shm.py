"""Tests for repro.runtime.shm: the shared-memory shard transport.

Covers the snapshot codec, byte-identical serving vs the linear
reference, ring wraparound under sustained load, worker crash →
respawn + slot reclamation, hot-swap snapshot shipping, and the
schema-width guard.
"""

import random

import numpy as np
import pytest

from conftest import random_classifier
from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultPlan
from repro.core import Classifier, make_rule, uniform_schema
from repro.runtime.shard import ShardedRuntime
from repro.runtime.shm import pack_snapshot, unpack_snapshot
from repro.runtime.telemetry import Telemetry
from repro.saxpac.config import EngineConfig
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.traces import generate_trace


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(31)
    classifier = random_classifier(rng, num_rules=40)
    trace = generate_trace(classifier, 400, seed=8)
    block = np.ascontiguousarray(np.asarray(trace, dtype=np.uint32))
    expected = [r.index for r in classifier.match_batch(trace)]
    return classifier, trace, block, expected


class TestSnapshot:
    def test_round_trip_preserves_decisions(self, setup):
        classifier, trace, _, expected = setup
        payload = pack_snapshot(classifier, EngineConfig())
        rebuilt, config = unpack_snapshot(payload)
        assert isinstance(config, EngineConfig)
        assert len(rebuilt.rules) == len(classifier.rules)
        got = [r.index for r in rebuilt.match_batch(trace[:100])]
        assert got == expected[:100]

    def test_round_trip_preserves_names(self, setup):
        classifier, _, _, _ = setup
        named = Classifier(
            classifier.schema,
            [make_rule([(1, 3), (0, 63), (4, 9)], name="R1")]
            + list(classifier.body),
        )
        rebuilt, _ = unpack_snapshot(pack_snapshot(named, EngineConfig()))
        assert rebuilt.rules[0].name == "R1"
        assert rebuilt.rules[1].name == named.rules[1].name

    def test_snapshot_is_columnar_not_pickled_rules(self, setup):
        classifier, _, _, _ = setup
        payload = pack_snapshot(classifier, EngineConfig())
        # Bounds travel as raw int64 bytes, not per-rule objects.
        assert isinstance(payload["lows"], bytes)
        assert isinstance(payload["highs"], bytes)


class TestShmMode:
    def test_matches_reference_on_wire_blocks(self, setup):
        classifier, _, block, expected = setup
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm"
        ) as sharded:
            got = sharded.match_indices(block)
        assert list(got) == expected

    def test_matches_reference_on_tuple_headers(self, setup):
        classifier, trace, _, expected = setup
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm"
        ) as sharded:
            got = sharded.match_indices(trace[:120])
        assert list(got) == expected[:120]

    def test_empty_batch(self, setup):
        classifier, _, _, _ = setup
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm"
        ) as sharded:
            got = sharded.match_indices([])
        assert got.dtype == np.int64 and got.tolist() == []

    def test_ring_wraparound(self, setup):
        # Slots are reused once SEQ_DONE catches SEQ_SUBMIT; a tiny
        # ring forces every slot through many submit/complete cycles.
        classifier, _, block, expected = setup
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm",
            shm_capacity=32, shm_depth=2,
        ) as sharded:
            for _ in range(3):
                got = []
                for start in range(0, len(block), 64):
                    got.extend(sharded.match_indices(block[start:start + 64]))
                assert got == expected

    def test_batch_larger_than_slot_capacity_is_rechunked(self, setup):
        classifier, _, block, expected = setup
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm",
            shm_capacity=64, shm_depth=2,
        ) as sharded:
            got = sharded.match_indices(block)  # 400 pkts > 2x64 slots
        assert list(got) == expected

    def test_slot_reuse_before_wait_preserves_results(self, setup):
        # An oversize batch submits all chunks up front, so a slot whose
        # worker already finished can be reclaimed before its handle is
        # waited on.  The pool must copy those results out (stash) —
        # otherwise the worker overwrites the results slab under the
        # outstanding handle and wait() returns the *newer* chunk's
        # answers for the older handle.
        import time as _time

        from repro.runtime.shm import SEQ_DONE

        classifier, _, block, expected = setup
        with ShardedRuntime(
            classifier=classifier, num_shards=1, mode="shm",
            shm_capacity=64, shm_depth=1,
        ) as sharded:
            pool = sharded._shm_pool
            h1 = pool.submit(0, block[:64])
            # Let the worker finish h1 without consuming the handle.
            deadline = _time.monotonic() + 10
            while pool.ring.ctrl[h1[1]][SEQ_DONE] < h1[2]:
                assert _time.monotonic() < deadline
                _time.sleep(0.001)
            h2 = pool.submit(0, block[64:128])  # reclaims h1's slot
            s2, r2 = pool.wait(h2, 10.0)
            s1, r1 = pool.wait(h1, 10.0)
        assert (s1, list(r1)) == ("ok", expected[:64])
        assert (s2, list(r2)) == ("ok", expected[64:128])

    def test_rejects_schema_wider_than_32_bits(self):
        schema = uniform_schema(2, 40)
        classifier = Classifier(
            schema, [make_rule([(0, 1 << 35), (5, 9)])]
        )
        with pytest.raises(ValueError, match="32 bits.*'thread'"):
            ShardedRuntime(classifier=classifier, num_shards=1, mode="shm")

    def test_rejects_engine_with_shm_mode(self, setup):
        classifier, _, _, _ = setup
        engine = SaxPacEngine(classifier)
        with pytest.raises(ValueError):
            ShardedRuntime(engine=engine, num_shards=2, mode="shm")

    def test_close_idempotent(self, setup):
        classifier, _, _, _ = setup
        sharded = ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm"
        )
        sharded.close()
        sharded.close()


class TestCrashRecovery:
    def test_worker_crash_respawns_and_reclaims_slots(self, setup):
        # After one clean chunk each worker dies mid-chunk (a real
        # os._exit, not an exception); the dispatcher must reclaim the
        # lost slot, respawn the worker and retry to the exact answers.
        classifier, _, block, expected = setup
        plan = FaultPlan.from_dict({
            "seed": 3,
            "faults": [
                {"site": "shard.worker", "kind": "crash",
                 "times": 1, "after": 1},
            ],
        })
        tel = Telemetry()
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm",
            recorder=tel, injector=FaultInjector(plan),
            max_retries=3, on_error="fallback",
        ) as sharded:
            for _ in range(3):
                assert list(sharded.match_indices(block)) == expected
            reclaimed = sharded._shm_pool.slots_reclaimed
            # The crash budget is shared across respawns (as in thread
            # mode), so once it is spent the fleet stays up.
            for _ in range(2):
                assert list(sharded.match_indices(block)) == expected
            assert sharded._shm_pool.slots_reclaimed == reclaimed
            assert sharded._shm_pool.workers_alive() == 2
        snap = tel.snapshot()
        assert snap.counter("runtime.worker_errors") >= 1
        assert snap.counter("runtime.retries") >= 1
        assert reclaimed >= 1

    def test_workers_stay_up_without_chaos(self, setup):
        classifier, _, block, expected = setup
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm"
        ) as sharded:
            for _ in range(3):
                sharded.match_indices(block)
            assert sharded._shm_pool.workers_alive() == 2
            assert sharded._shm_pool.slots_reclaimed == 0


class TestHotSwap:
    def test_swap_ships_one_snapshot_and_tracks_rules(self, setup):
        classifier, trace, block, expected = setup
        rng = random.Random(77)
        replacement = random_classifier(rng, num_rules=40)
        want_after = [r.index for r in replacement.match_batch(trace)]
        engines = {"current": SaxPacEngine(classifier)}
        tel = Telemetry()
        with ShardedRuntime(
            engine_source=lambda: engines["current"], num_shards=2,
            mode="shm", recorder=tel,
        ) as sharded:
            assert list(sharded.match_indices(block)) == expected
            engines["current"] = SaxPacEngine(replacement)
            assert list(sharded.match_indices(block)) == want_after
            # A second batch against the same engine ships nothing new.
            assert list(sharded.match_indices(block)) == want_after
        assert tel.counter("runtime.snapshot_ships") == 1

    def test_match_batch_materializes_against_swapped_rules(self, setup):
        classifier, trace, _, _ = setup
        rng = random.Random(78)
        replacement = random_classifier(rng, num_rules=30)
        engines = {"current": SaxPacEngine(classifier)}
        with ShardedRuntime(
            engine_source=lambda: engines["current"], num_shards=2,
            mode="shm",
        ) as sharded:
            engines["current"] = SaxPacEngine(replacement)
            results = sharded.match_batch(trace[:50])
        for header, result in zip(trace[:50], results):
            want = replacement.match(header)
            assert result.index == want.index
            assert result.rule is want.rule


class TestObservability:
    def test_worker_telemetry_ships_back(self, setup):
        classifier, _, block, _ = setup
        tel = Telemetry()
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm",
            recorder=tel,
        ) as sharded:
            sharded.match_indices(block[:120])
            sharded.collect()
            snap = tel.snapshot()
        assert snap.counter("engine.lookups") == 120
        assert "engine.match_batch" in snap.latencies

    def test_worker_spans_nest_under_caller(self, setup):
        from repro.obs import Observability

        classifier, _, block, _ = setup
        obs = Observability.create(tracing=True, heat=True)
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm",
            recorder=obs.recorder,
        ) as sharded:
            with obs.tracer.span("batch") as batch:
                sharded.match_indices(block[:100])
            sharded.collect()
        assert obs.heat.seen_packets == 100
        chunks = [
            s for s in obs.tracer.spans() if s.name == "shard.chunk"
        ]
        assert chunks
        assert all(s.parent_id == batch.span_id for s in chunks)
        assert all(s.trace_id == batch.trace_id for s in chunks)
        assert any(s.pid != batch.pid for s in chunks)
