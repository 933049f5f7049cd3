"""Tests for repro.runtime.telemetry: counters, histograms, renderers."""

import copy
import json
import pickle
import threading

import pytest

from repro.runtime.telemetry import (
    NULL_RECORDER,
    NUM_BUCKETS,
    LatencyHistogram,
    NullRecorder,
    Telemetry,
    bucket_bound,
    bucket_index,
    render_text,
)


class TestNullRecorder:
    def test_disabled_flag(self):
        assert NULL_RECORDER.enabled is False
        assert NullRecorder().enabled is False

    def test_noop_methods(self):
        rec = NullRecorder()
        rec.incr("x")
        rec.incr("x", 5)
        rec.observe("stage", 0.25)  # no state, no error

    def test_no_observability_sinks(self):
        assert NULL_RECORDER.tracer is None
        assert NULL_RECORDER.heat is None

    def test_span_is_shared_noop(self):
        rec = NullRecorder()
        with rec.span("anything", parent=None, batch=3):
            pass
        assert rec.span("a") is rec.span("b")  # one shared nullcontext


class TestBucketPrimitive:
    """The one log2-us bucket layout every histogram in the package
    shares (telemetry, stage waterfall, flight recorder, Prometheus)."""

    @pytest.mark.parametrize(
        "seconds, index",
        [
            (0.0, 0),
            (-1e-3, 0),
            (0.9e-6, 0),
            (1e-6, 1),
            (1.999e-6, 1),
            (2e-6, 2),
            (1e-3, 10),  # 1000 us lies in [512, 1024)
            (1e9, NUM_BUCKETS - 1),
        ],
    )
    def test_index(self, seconds, index):
        assert bucket_index(seconds) == index

    def test_observation_lies_below_its_bound(self):
        for micros in (1, 3, 7, 8, 1000, 123_456):
            seconds = micros / 1e6
            index = bucket_index(seconds)
            assert bucket_bound(index - 1) <= seconds < bucket_bound(index)


class TestLatencyHistogram:
    def test_empty_stats(self):
        stats = LatencyHistogram().stats()
        assert stats.count == 0
        assert stats.p50 == 0.0
        assert stats.p99 == 0.0
        assert stats.minimum == 0.0
        assert stats.mean == 0.0

    def test_observe_and_percentiles(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.observe(0.001)  # 1 ms
        stats = hist.stats()
        assert stats.count == 100
        assert stats.minimum <= 0.001 <= stats.maximum
        # log2 buckets answer quantiles to within a factor of two.
        assert 0.0005 <= stats.p50 <= 0.002
        assert 0.0005 <= stats.p99 <= 0.002
        assert stats.mean == pytest.approx(0.001)

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.observe(0.001)
        b.observe(0.010)
        a.merge(b)
        stats = a.stats()
        assert stats.count == 2
        assert stats.maximum >= 0.010
        assert stats.minimum <= 0.001

    def test_extreme_values_clamped(self):
        hist = LatencyHistogram()
        hist.observe(0.0)
        hist.observe(1e9)
        assert hist.stats().count == 2

    def test_quantiles_clamped_to_observed_maximum(self):
        # 33us lands in the (32us, 64us] bucket whose upper bound is
        # 64us; the quantile must not exceed what was actually seen.
        hist = LatencyHistogram()
        for _ in range(10):
            hist.observe(33e-6)
        stats = hist.stats()
        assert stats.p50 == pytest.approx(33e-6)
        assert stats.p99 == pytest.approx(33e-6)
        assert stats.p50 <= stats.maximum

    def test_quantile_uses_bucket_bound_below_maximum(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.observe(3e-6)  # bucket ending at 4us
        hist.observe(1.0)  # pushes maximum way up
        stats = hist.stats()
        assert stats.p50 == pytest.approx(4e-6)
        assert stats.maximum == pytest.approx(1.0)

    def test_stats_expose_trimmed_buckets(self):
        hist = LatencyHistogram()
        hist.observe(3e-6)   # bucket 2
        hist.observe(0.5e-6)  # bucket 0
        buckets = hist.stats().buckets
        assert list(buckets) == [1, 0, 1]  # trailing zeros trimmed
        assert sum(buckets) == hist.count


class TestTelemetry:
    def test_incr_and_counter(self):
        tel = Telemetry()
        tel.incr("engine.lookups")
        tel.incr("engine.lookups", 4)
        assert tel.counter("engine.lookups") == 5
        assert tel.counter("missing") == 0

    def test_enabled_flag(self):
        assert Telemetry().enabled is True

    def test_snapshot_is_frozen_view(self):
        tel = Telemetry()
        tel.incr("a", 2)
        snap = tel.snapshot()
        tel.incr("a", 10)
        assert snap.counter("a") == 2  # snapshot unaffected by later incr
        assert tel.counter("a") == 12

    def test_observe_appears_in_snapshot(self):
        tel = Telemetry()
        tel.observe("engine.match", 0.002)
        tel.observe("engine.match", 0.004)
        snap = tel.snapshot()
        assert "engine.match" in snap.latencies
        assert snap.latencies["engine.match"].count == 2

    def test_reset(self):
        tel = Telemetry()
        tel.incr("a")
        tel.observe("s", 0.1)
        tel.reset()
        snap = tel.snapshot()
        assert dict(snap.counters) == {}
        assert dict(snap.latencies) == {}

    def test_merge_other_telemetry(self):
        a, b = Telemetry(), Telemetry()
        a.incr("x", 1)
        b.incr("x", 2)
        b.observe("s", 0.01)
        a.merge(b)
        assert a.counter("x") == 3
        assert a.snapshot().latencies["s"].count == 1

    def test_thread_safety_smoke(self):
        tel = Telemetry()

        def worker():
            for _ in range(1000):
                tel.incr("n")
                tel.observe("s", 0.0001)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tel.counter("n") == 4000
        assert tel.snapshot().latencies["s"].count == 4000

    def test_concurrent_writers_and_snapshotters(self):
        # Stress: writers hammer incr/observe while readers snapshot and
        # drain concurrently; nothing may be lost or double-counted.
        tel = Telemetry()
        sink = Telemetry()
        stop = threading.Event()
        per_writer, writers = 2000, 4

        def writer():
            for i in range(per_writer):
                tel.incr("n")
                tel.observe("s", 1e-5 * (i % 7 + 1))

        def reader():
            while not stop.is_set():
                snap = tel.snapshot()
                assert snap.counter("n") >= 0
                for stats in snap.latencies.values():
                    assert sum(stats.buckets) == stats.count
                sink.absorb(tel.drain())

        threads = [threading.Thread(target=writer) for _ in range(writers)]
        drainer = threading.Thread(target=reader)
        drainer.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        drainer.join()
        sink.absorb(tel.drain())
        total = per_writer * writers
        assert sink.counter("n") == total
        assert sink.snapshot().latencies["s"].count == total

    def test_span_without_tracer_is_noop(self):
        tel = Telemetry()
        with tel.span("stage", batch=1):
            pass
        assert tel.span("a") is tel.span("b")

    def test_span_delegates_to_tracer(self):
        class FakeTracer:
            def __init__(self):
                self.calls = []

            def span(self, name, parent=None, **tags):
                self.calls.append((name, parent, tags))
                import contextlib

                return contextlib.nullcontext()

        tracer = FakeTracer()
        tel = Telemetry(tracer=tracer)
        with tel.span("stage", parent="ctx", shard=2):
            pass
        assert tracer.calls == [("stage", "ctx", {"shard": 2})]

    def test_drain_returns_everything_and_empties(self):
        tel = Telemetry()
        tel.incr("a", 3)
        tel.observe("s", 0.001)
        delta = tel.drain()
        assert delta.counters == {"a": 3}
        assert delta.histograms["s"].count == 1
        assert not delta.is_empty()
        assert tel.counter("a") == 0
        assert tel.drain().is_empty()

    def test_absorb_folds_delta_back(self):
        a, b = Telemetry(), Telemetry()
        a.incr("x", 2)
        a.observe("s", 0.001)
        b.incr("x", 5)
        b.observe("s", 0.002)
        a.absorb(b.drain())
        assert a.counter("x") == 7
        stats = a.snapshot().latencies["s"]
        assert stats.count == 2
        assert stats.total == pytest.approx(0.003)

    def test_delta_is_picklable(self):
        tel = Telemetry()
        tel.incr("a")
        tel.observe("s", 0.001)
        delta = pickle.loads(pickle.dumps(tel.drain()))
        sink = Telemetry()
        sink.absorb(delta)
        assert sink.counter("a") == 1

    def test_deepcopy_keeps_data_drops_sinks(self):
        tel = Telemetry(tracer=object(), heat=object())
        tel.incr("a", 4)
        tel.observe("s", 0.001)
        clone = copy.deepcopy(tel)
        assert clone.counter("a") == 4
        assert clone.snapshot().latencies["s"].count == 1
        assert clone.tracer is None and clone.heat is None
        clone.incr("a")  # fresh lock works
        assert tel.counter("a") == 4  # original untouched


class TestRenderers:
    def test_to_json_round_trip(self):
        tel = Telemetry()
        tel.incr("engine.lookups", 7)
        tel.observe("engine.match", 0.003)
        data = json.loads(tel.snapshot().to_json())
        assert data["counters"]["engine.lookups"] == 7
        assert data["latencies"]["engine.match"]["count"] == 1
        assert data["latencies"]["engine.match"]["mean_s"] == pytest.approx(
            0.003
        )

    def test_as_dict_exposes_buckets(self):
        tel = Telemetry()
        tel.observe("s", 3e-6)
        tel.observe("s", 3e-6)
        data = tel.snapshot().as_dict()
        buckets = data["latencies"]["s"]["buckets"]
        assert buckets == [0, 0, 2]
        assert sum(buckets) == data["latencies"]["s"]["count"]

    def test_render_text_groups_by_prefix(self):
        tel = Telemetry()
        tel.incr("engine.lookups", 3)
        tel.incr("cache.hits", 1)
        tel.observe("engine.match", 0.001)
        text = render_text(tel.snapshot())
        assert "engine:" in text
        assert "cache:" in text
        assert "lookups" in text
        assert "engine.match" in text

    def test_render_text_empty(self):
        assert isinstance(render_text(Telemetry().snapshot()), str)
