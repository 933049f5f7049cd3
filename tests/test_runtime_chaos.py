"""Chaos tests: fault injection against the hardened runtime.

Two layers:

* directed tests — one failure mode at a time (worker crash, hung
  worker vs the deadline, swap-build failure and quarantine, corrupted
  engine report, load shedding), each asserting the degradation
  invariant: every answer produced *during* a failure still equals the
  linear reference of the serving snapshot;
* a hypothesis :class:`RuleBasedStateMachine` interleaving batches, hot
  swaps and mid-run fault arming, asserting no batch result is lost or
  duplicated, telemetry counters stay monotonic, and health transitions
  only happen when faults (or recoveries) explain them.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from conftest import random_classifier
from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.runtime.batch import linear_match_batch, verify_against_linear
from repro.runtime.health import HealthMonitor, HealthState
from repro.runtime.service import (
    LoadShedError,
    RuntimeConfig,
    RuntimeService,
)
from repro.runtime.shard import ShardedRuntime, ShardWorkerError
from repro.runtime.telemetry import Telemetry
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.traces import generate_trace


@pytest.fixture
def setup():
    rng = random.Random(33)
    classifier = random_classifier(rng, num_rules=30)
    trace = generate_trace(classifier, 240, seed=9)
    return classifier, trace


def _injector(*specs, seed=0):
    return FaultInjector(FaultPlan(tuple(specs), seed=seed))


def _want(classifier, headers):
    return [r.index for r in linear_match_batch(classifier, headers)]


class TestPoolTeardown:
    """Regression: close() used to terminate() the worker processes
    without joining, leaking children; worker errors surfaced as a bare
    pool exception with no traceback."""

    def test_close_joins_process_workers(self, setup):
        classifier, trace = setup
        sharded = ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm"
        )
        sharded.match_indices(trace[:60])
        assert multiprocessing.active_children(), (
            "expected live shm workers before close"
        )
        sharded.close()
        assert not multiprocessing.active_children(), (
            "close() must join() shm workers, not orphan them"
        )

    def test_process_worker_traceback_surfaces(self, setup):
        classifier, trace = setup
        # An ``error`` (not ``crash``): a crash kills an shm worker like
        # a segfault, while a raised error comes back as its traceback.
        injector = _injector(FaultSpec(site="shard.worker", kind="error"))
        with ShardedRuntime(
            classifier=classifier, num_shards=2, mode="shm",
            injector=injector, max_retries=0, on_error="raise",
        ) as sharded:
            with pytest.raises(ShardWorkerError) as excinfo:
                sharded.match_indices(trace[:60])
        text = str(excinfo.value)
        assert "worker traceback" in text
        assert "InjectedFault" in text  # the real cause, not a pool error
        assert excinfo.value.worker_traceback

    def test_thread_worker_traceback_surfaces(self, setup):
        classifier, trace = setup
        engine = SaxPacEngine(classifier)
        injector = _injector(FaultSpec(site="shard.worker", kind="error"))
        with ShardedRuntime(
            engine=engine, num_shards=2, injector=injector,
            max_retries=0, on_error="raise",
        ) as sharded:
            with pytest.raises(ShardWorkerError) as excinfo:
                sharded.match_indices(trace[:60])
        assert "InjectedFault" in str(excinfo.value)


class TestShardRetries:
    def test_transient_errors_are_retried(self, setup):
        classifier, trace = setup
        engine = SaxPacEngine(classifier)
        tel = Telemetry()
        injector = _injector(
            FaultSpec(site="shard.worker", kind="error", times=2)
        )
        with ShardedRuntime(
            engine=engine, num_shards=2, injector=injector,
            max_retries=2, backoff_s=0.001, recorder=tel,
        ) as sharded:
            got = sharded.match_indices(trace)
        assert got.tolist() == _want(classifier, trace)
        assert tel.counter("runtime.retries") >= 1
        assert tel.counter("runtime.worker_errors") == 2

    def test_persistent_errors_fall_back_linearly(self, setup):
        classifier, trace = setup
        engine = SaxPacEngine(classifier)
        tel = Telemetry()
        health = HealthMonitor(tel)
        injector = _injector(FaultSpec(site="shard.worker", kind="crash"))
        with ShardedRuntime(
            engine=engine, num_shards=2, injector=injector,
            max_retries=1, backoff_s=0.001, on_error="fallback",
            recorder=tel, health=health,
        ) as sharded:
            got = sharded.match_indices(trace)
        assert got.tolist() == _want(classifier, trace)  # zero wrong answers
        assert tel.counter("runtime.chunk_fallbacks") == 2
        assert sharded.last_worker_error is not None
        assert health.state is not HealthState.HEALTHY

    def test_hung_worker_hits_deadline_and_respawns(self, setup):
        classifier, trace = setup
        engine = SaxPacEngine(classifier)
        tel = Telemetry()
        injector = _injector(
            FaultSpec(
                site="shard.worker", kind="hang", times=1, delay_s=0.5
            )
        )
        with ShardedRuntime(
            engine=engine, num_shards=2, injector=injector,
            deadline_ms=60, recorder=tel,
        ) as sharded:
            got = sharded.match_indices(trace)
            assert got.tolist() == _want(classifier, trace)
            assert tel.counter("runtime.deadline_timeouts") >= 1
            assert tel.counter("runtime.worker_respawns") >= 1
            assert tel.counter("runtime.chunk_fallbacks") >= 1
            # The respawned pool serves normally afterwards.
            assert sharded.match_indices(trace[:40]).tolist() == _want(
                classifier, trace[:40]
            )


class TestSwapQuarantine:
    def test_failed_rebuild_quarantines_old_engine(self, setup):
        classifier, trace = setup
        tel = Telemetry()
        injector = _injector(
            FaultSpec(site="swap.build", kind="error", after=1, times=1)
        )
        service = RuntimeService(
            classifier,
            RuntimeConfig(batch_size=64),
            recorder=tel,
            injector=injector,
        )
        with service:
            generation = service.swap.generation
            stale = service.serving_classifier()
            service.insert(random.Random(1).choice(classifier.body))
            # The rebuild failed: old engine serves, generation frozen.
            assert service.swap.quarantined
            assert service.swap.generation == generation
            assert not service.swap.degraded
            results = service.match_batch(trace[:64])
            # Answers are exact for the *quarantined* snapshot.
            assert verify_against_linear(
                service.serving_classifier(), trace[:64], results
            ) == []
            assert service.serving_classifier() is stale
            assert tel.counter("swap.quarantined") == 1
            assert service.health.state is not HealthState.HEALTHY
            # Next good rebuild clears the quarantine.
            service.insert(random.Random(2).choice(classifier.body))
            assert not service.swap.quarantined
            assert service.swap.generation > generation

    def test_corrupted_report_is_rejected(self, setup):
        classifier, _ = setup
        tel = Telemetry()
        injector = _injector(
            FaultSpec(site="engine.report", kind="corrupt", times=1)
        )
        with RuntimeService(
            classifier, recorder=tel, injector=injector
        ) as service:
            assert service.engine_report() is None  # corrupted -> rejected
            assert tel.counter("runtime.report_corruptions") == 1
            report = service.engine_report()  # next one is sane again
            assert report is not None and report.is_sane()


class TestServiceDegradation:
    def test_ladder_descends_serves_linearly_and_recovers(self, setup):
        classifier, trace = setup
        tel = Telemetry()
        injector = _injector(
            FaultSpec(site="service.batch", kind="error", times=2)
        )
        config = RuntimeConfig(
            batch_size=64, fallback_after=2, recover_after=1,
            probe_every=2,
        )
        with RuntimeService(
            classifier, config, recorder=tel, injector=injector
        ) as service:
            batch = trace[:64]
            want = _want(classifier, batch)
            # Two faulted batches: healthy -> degraded -> linear-fallback,
            # both still answered correctly via the linear path.
            for _ in range(2):
                assert [r.index for r in service.match_batch(batch)] == want
            assert service.health.state is HealthState.LINEAR_FALLBACK
            assert tel.counter("runtime.batch_fallbacks") == 2
            assert tel.counter("health.to_linear_fallback") == 1
            # Faults exhausted: linear serving continues, probes prove the
            # fast path, the ladder steps back to healthy.
            for _ in range(6):
                assert [r.index for r in service.match_batch(batch)] == want
            assert service.health.state is HealthState.HEALTHY
            assert tel.counter("runtime.fallback_batches") >= 1
            assert tel.counter("runtime.fallback_probes") >= 1
            healthy, payload = service.health_payload()
            assert healthy and payload["status"] == "ok"

    def test_healthz_reports_ladder_state(self, setup):
        classifier, _ = setup
        with RuntimeService(classifier) as service:
            service.health.record_failure("test")
            healthy, payload = service.health_payload()
            assert not healthy
            assert payload["health"] == "degraded"

    def test_load_shedding_past_watermark(self, setup):
        classifier, trace = setup
        tel = Telemetry()
        config = RuntimeConfig(batch_size=64, shed_watermark=1)
        with RuntimeService(classifier, config, recorder=tel) as service:
            # Simulate a stuck in-flight batch; the next one is shed.
            service._inflight = 1
            with pytest.raises(LoadShedError):
                service.match_batch(trace[:8])
            assert tel.counter("runtime.shed") == 1
            service._inflight = 0
            assert service.match_batch(trace[:8])  # serves again

    def test_gauges_expose_health_and_shed(self, setup):
        classifier, _ = setup
        with RuntimeService(classifier) as service:
            gauges = service.gauges()
            for name in (
                "runtime.health", "runtime.shed", "runtime.retries",
                "runtime.worker_respawns", "runtime.quarantined",
            ):
                assert name in gauges
            assert gauges["runtime.health"] == float(HealthState.HEALTHY)


_MONOTONIC = (
    "runtime.batches", "runtime.packets", "runtime.retries",
    "runtime.worker_errors", "runtime.batch_fallbacks",
    "health.failures", "health.transitions", "swap.rebuild_failures",
    "swap.quarantined",
)

_ARMABLE = (
    ("shard.worker", "error"),
    ("shard.worker", "crash"),
    ("swap.build", "error"),
    ("engine.lookup", "error"),
    ("service.batch", "error"),
)


class ChaosMachine(RuleBasedStateMachine):
    """Interleave serving, hot swaps and fault arming; the service must
    never lose/duplicate results, answer wrongly, or move the health
    ladder without a recorded cause."""

    @initialize()
    def start(self):
        rng = random.Random(77)
        self.classifier = random_classifier(rng, num_rules=20)
        self.rng = random.Random(101)
        self.telemetry = Telemetry()
        self.injector = FaultInjector(FaultPlan(seed=5))
        self.service = RuntimeService(
            self.classifier,
            RuntimeConfig(
                batch_size=32, num_shards=2, fallback_after=2,
                recover_after=1, probe_every=3, max_retries=1,
            ),
            recorder=self.telemetry,
            injector=self.injector,
        )
        self.counters = {}
        self.transitions_seen = 0

    def teardown(self):
        if hasattr(self, "service"):
            self.service.close()

    @rule(n=st.integers(min_value=1, max_value=48))
    def serve_batch(self, n):
        batch = [
            tuple(
                self.rng.randint(0, spec.max_value)
                for spec in self.classifier.schema
            )
            for _ in range(n)
        ]
        reference = self.service.serving_classifier()
        results = self.service.match_batch(batch)
        # No lost or duplicated results: exactly one answer per packet,
        # in input order, equal to the serving snapshot's reference.
        assert len(results) == n
        assert verify_against_linear(reference, batch, results) == []

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def hot_swap(self, pick):
        body = self.classifier.body
        report = self.service.insert(body[pick % len(body)])
        assert report.accepted
        # Swap either succeeded (fresh generation serves) or quarantined
        # (old engine serves); in both cases serving stays consistent.
        results = self.service.match_batch([tuple(
            0 for _ in self.classifier.schema
        )])
        assert len(results) == 1

    @rule(which=st.sampled_from(_ARMABLE))
    def arm_fault(self, which):
        site, kind = which
        self.injector.arm(FaultSpec(site=site, kind=kind, times=1))

    @invariant()
    def counters_monotonic(self):
        if not hasattr(self, "service"):
            return
        snapshot = self.service.snapshot()
        for name in _MONOTONIC:
            value = snapshot.counter(name)
            assert value >= self.counters.get(name, 0), name
            self.counters[name] = value

    @invariant()
    def transitions_have_causes(self):
        if not hasattr(self, "service"):
            return
        transitions = self.service.health.transitions
        if transitions > self.transitions_seen:
            # Any ladder movement must be explained by recorded failures
            # or recoveries, never spontaneous.
            assert (
                self.telemetry.counter("health.failures") > 0
            ), "health moved with no recorded failure"
        self.transitions_seen = transitions
        if self.service.health.state is HealthState.HEALTHY:
            assert self.telemetry.counter(
                "health.to_linear_fallback"
            ) <= self.telemetry.counter("health.transitions")


ChaosMachine.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestChaosStateMachine = ChaosMachine.TestCase
