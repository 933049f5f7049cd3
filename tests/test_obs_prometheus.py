"""Tests for repro.obs.prometheus: exposition format and round-trips."""

import pytest

from repro.obs.prometheus import (
    parse_exposition,
    render_prometheus,
    sanitize_metric_name,
)
from repro.runtime.telemetry import HistogramStats, Telemetry


def _snapshot(**observations):
    tel = Telemetry()
    tel.incr("engine.lookups", 42)
    tel.incr("shard.chunks", 7)
    for stage, seconds in observations.items():
        for value in seconds:
            tel.observe(stage, value)
    return tel.snapshot()


class TestNames:
    def test_counter_name(self):
        assert (
            sanitize_metric_name("engine.group_probes", "_total")
            == "saxpac_engine_group_probes_total"
        )

    def test_strips_illegal_characters(self):
        name = sanitize_metric_name("engine.match-batch (v2)")
        assert name == "saxpac_engine_match_batch_v2"

    def test_collapses_runs_of_underscores(self):
        assert sanitize_metric_name("a..b") == "saxpac_a_b"


class TestCounters:
    def test_counter_lines_with_help_and_type(self):
        text = render_prometheus(_snapshot())
        assert "# TYPE saxpac_engine_lookups_total counter" in text
        assert "saxpac_engine_lookups_total 42" in text
        assert "saxpac_shard_chunks_total 7" in text

    def test_labels_ride_on_every_sample(self):
        text = render_prometheus(_snapshot(), labels={"instance": "s0"})
        assert 'saxpac_engine_lookups_total{instance="s0"} 42' in text

    def test_label_values_escaped(self):
        text = render_prometheus(
            _snapshot(), labels={"path": 'a"b\\c'}
        )
        assert '{path="a\\"b\\\\c"}' in text

    def test_gauges_rendered(self):
        text = render_prometheus(
            _snapshot(), extra_gauges={"runtime.generation": 3.0}
        )
        assert "# TYPE saxpac_runtime_generation gauge" in text
        assert "saxpac_runtime_generation 3" in text


class TestHistograms:
    def test_buckets_cumulative_and_monotonic(self):
        # Observations across several log2 buckets.
        snap = _snapshot(**{"engine.match": [1e-6, 3e-6, 3e-6, 1e-4, 0.01]})
        metrics = parse_exposition(render_prometheus(snap))
        buckets = metrics["saxpac_engine_match_latency_seconds_bucket"]
        # Sort bucket samples by their le bound (with +Inf last).
        def bound(label):
            le = label.split('le="', 1)[1].rstrip('"}')
            return float("inf") if le == "+Inf" else float(le)

        ordered = [buckets[k] for k in sorted(buckets, key=bound)]
        assert ordered == sorted(ordered), "cumulative buckets must be monotonic"
        assert ordered[-1] == 5  # +Inf bucket counts everything

    def test_inf_bucket_equals_count(self):
        snap = _snapshot(**{"s": [0.001] * 9})
        metrics = parse_exposition(render_prometheus(snap))
        buckets = metrics["saxpac_s_latency_seconds_bucket"]
        inf = [v for k, v in buckets.items() if 'le="+Inf"' in k]
        assert inf == [9.0]
        assert metrics["saxpac_s_latency_seconds_count"][""] == 9.0

    def test_count_and_sum_consistent_with_snapshot(self):
        values = [0.002, 0.004, 0.032]
        snap = _snapshot(**{"s": values})
        metrics = parse_exposition(render_prometheus(snap))
        assert metrics["saxpac_s_latency_seconds_count"][""] == len(values)
        assert metrics["saxpac_s_latency_seconds_sum"][""] == pytest.approx(
            sum(values)
        )

    def test_bucket_bounds_follow_log2_scheme(self):
        # One 3us observation lands in bucket 2 ([2us, 4us)); every
        # rendered bound at or past 4e-06 must already include it.
        snap = _snapshot(**{"s": [3e-6]})
        text = render_prometheus(snap)
        for line in text.splitlines():
            if "_bucket" not in line or "+Inf" in line:
                continue
            le = float(line.split('le="')[1].split('"')[0])
            value = float(line.rsplit(" ", 1)[1])
            assert value == (1.0 if le >= 4e-6 else 0.0)

    def test_bucket_upper_bound_helper(self):
        assert HistogramStats.bucket_upper_bound(0) == 1e-6
        assert HistogramStats.bucket_upper_bound(10) == 1024e-6

    def test_histogram_type_line(self):
        text = render_prometheus(_snapshot(**{"s": [0.001]}))
        assert "# TYPE saxpac_s_latency_seconds histogram" in text


class TestRoundTrip:
    def test_full_round_trip_counters(self):
        snap = _snapshot(**{"engine.match": [0.001, 0.002]})
        metrics = parse_exposition(render_prometheus(snap))
        assert metrics["saxpac_engine_lookups_total"][""] == 42.0
        assert metrics["saxpac_shard_chunks_total"][""] == 7.0

    def test_exposition_ends_with_newline(self):
        assert render_prometheus(_snapshot()).endswith("\n")

    def test_empty_snapshot_renders(self):
        text = render_prometheus(Telemetry().snapshot())
        assert isinstance(text, str)


class TestHelpCoverage:
    """Every exported family must carry HELP/TYPE, and the serving-path
    families must carry *curated* (non-generic) HELP — dashboards alert
    on them, so the exposition has to say what each one means."""

    @staticmethod
    def _families(text):
        """{family: help_text} from HELP lines, plus the set of sample
        family names (histogram suffixes folded onto their family)."""
        helped = {}
        typed = set()
        samples = set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                _, _, rest = line.partition("# HELP ")
                name, _, help_text = rest.partition(" ")
                helped[name] = help_text
            elif line.startswith("# TYPE "):
                typed.add(line.split()[2])
            elif line and not line.startswith("#"):
                name = line.split("{", 1)[0].split(" ", 1)[0]
                for suffix in ("_bucket", "_count", "_sum"):
                    if name.endswith(suffix):
                        name = name[: -len(suffix)]
                        break
                samples.add(name)
        return helped, typed, samples

    def _full_exposition(self):
        tel = Telemetry()
        for counter in (
            "net.requests",
            "net.lookups",
            "net.shed",
            "net.coalesced_requests",
            "engine.group_probes",
        ):
            tel.incr(counter, 3)
        tel.observe("net.request", 0.002)
        stage_stats = {
            "lookup": {
                "count": 1,
                "sum_s": 1e-3,
                "buckets": tuple(
                    1 if i == 10 else 0 for i in range(40)
                ),
                "exemplars": {10: 0xBEEF},
            }
        }
        gauges = {
            "net.inflight": 2.0,
            "slo.serve.availability_burn_5m": 0.5,
            "slo.serve.fast_burn": 0.0,
        }
        return render_prometheus(
            tel.snapshot(), extra_gauges=gauges, stage_stats=stage_stats
        )

    def test_every_family_has_help_and_type(self):
        helped, typed, samples = self._families(self._full_exposition())
        assert samples  # the exposition is not empty
        missing_help = samples - set(helped)
        missing_type = samples - typed
        assert not missing_help, f"families without HELP: {missing_help}"
        assert not missing_type, f"families without TYPE: {missing_type}"

    def test_serving_families_have_curated_help(self):
        helped, _, _ = self._families(self._full_exposition())
        curated = {
            "saxpac_net_requests_total",
            "saxpac_net_lookups_total",
            "saxpac_net_shed_total",
            "saxpac_net_coalesced_requests_total",
            "saxpac_net_request_latency_seconds",
            "saxpac_stage_lookup_seconds",
            "saxpac_net_inflight",
            "saxpac_slo_serve_availability_burn_5m",
            "saxpac_slo_serve_fast_burn",
        }
        for family in curated:
            help_text = helped[family]
            assert not help_text.startswith(
                ("Pipeline counter", "Runtime gauge", "Latency of pipeline")
            ), f"{family} fell back to generic HELP: {help_text!r}"

    def test_stage_histogram_carries_exemplar_trace_id(self):
        text = self._full_exposition()
        exemplar_lines = [
            line
            for line in text.splitlines()
            if line.startswith("saxpac_stage_lookup_seconds_bucket")
            and "# {trace_id=" in line
        ]
        assert len(exemplar_lines) == 1
        assert f'trace_id="{0xBEEF:x}"' in exemplar_lines[0]
        # Exemplars must not confuse the parser.
        parsed = parse_exposition(text)
        assert parsed["saxpac_stage_lookup_seconds_count"][""] == 1.0
