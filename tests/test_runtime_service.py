"""Tests for repro.runtime.service and the ``runtime`` CLI command."""

import json
import random

import pytest

from conftest import random_classifier
from repro.cli import main
from repro.core import make_rule
from repro.runtime.service import RunReport, RuntimeConfig, RuntimeService
from repro.runtime.shard import SHARD_MODES
from repro.workloads.traces import generate_trace


@pytest.fixture
def setup():
    rng = random.Random(55)
    classifier = random_classifier(rng, num_rules=30)
    trace = generate_trace(classifier, 300, seed=8)
    return classifier, trace


class TestRuntimeConfig:
    def test_defaults(self):
        config = RuntimeConfig()
        assert config.batch_size == 1024
        assert config.num_shards == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"num_shards": 0},
            {"shard_mode": "fiber"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)

    def test_rejects_process_mode_naming_valid_modes(self):
        with pytest.raises(ValueError, match="thread, shm"):
            RuntimeConfig(num_shards=2, shard_mode="process")


class TestRuntimeService:
    def test_run_trace_report(self, setup):
        classifier, trace = setup
        with RuntimeService(
            classifier, RuntimeConfig(batch_size=64)
        ) as service:
            report = service.run_trace(trace)
        assert isinstance(report, RunReport)
        assert report.packets == len(trace)
        assert report.packets_per_second > 0
        snap = report.telemetry
        assert snap.counter("runtime.packets") == len(trace)
        assert snap.counter("runtime.batches") == 5  # ceil(300 / 64)
        assert snap.counter("engine.lookups") == len(trace)
        data = report.as_dict()
        assert data["packets"] == len(trace)
        assert "telemetry" in data

    def test_matches_reference(self, setup):
        classifier, trace = setup
        with RuntimeService(classifier) as service:
            got = [r.index for r in service.match_batch(trace)]
        assert got == [classifier.match(h).index for h in trace]

    def test_sharded_matches_unsharded(self, setup):
        classifier, trace = setup
        config = RuntimeConfig(batch_size=128, num_shards=3)
        with RuntimeService(classifier, config) as service:
            got = [r.index for r in service.match_batch(trace)]
        assert got == [classifier.match(h).index for h in trace]

    @pytest.mark.parametrize("mode", SHARD_MODES)
    def test_hot_insert_visible_to_shards(self, setup, mode):
        classifier, trace = setup
        config = RuntimeConfig(num_shards=2, shard_mode=mode)
        with RuntimeService(classifier, config) as service:
            service.match_batch(trace[:100])
            gen = service.swap.generation
            service.insert(make_rule([(0, 3)] * classifier.num_fields))
            assert service.swap.generation > gen
            # Removing the top rule shifts every index below it, so a
            # shard still serving an older rule set answers wrongly.
            service.remove(0)
            boxed = service.match_batch(trace)
            indices = service.match_indices(trace)
            snapshot = service.swap.snapshot_classifier()
        want = [snapshot.match(h) for h in trace]
        assert [r.index for r in boxed] == [w.index for w in want]
        assert [r.rule for r in boxed] == [w.rule for w in want]
        assert indices.tolist() == [w.index for w in want]

    def test_report_text(self, setup):
        classifier, trace = setup
        with RuntimeService(classifier) as service:
            service.match_batch(trace[:50])
            text = service.report_text()
        assert "runtime" in text
        assert "engine" in text


class TestRuntimeCli:
    def test_runtime_command(self, tmp_path, capsys):
        path = str(tmp_path / "acl.txt")
        assert main(["generate", "--style", "acl", "--rules", "80",
                     "--seed", "3", "--out", path]) == 0
        capsys.readouterr()
        rc = main(["runtime", path, "--trace", "1000",
                   "--batch-size", "128", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pkt/s" in out
        assert "telemetry" in out

    def test_runtime_command_json(self, tmp_path, capsys):
        path = str(tmp_path / "acl.txt")
        assert main(["generate", "--style", "acl", "--rules", "60",
                     "--seed", "4", "--out", path]) == 0
        capsys.readouterr()
        rc = main(["runtime", path, "--trace", "500", "--seed", "2",
                   "--shards", "2", "--updates", "3", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["packets"] == 500
        assert data["telemetry"]["counters"]["runtime.packets"] == 500

    def test_runtime_seed_reproducible(self, tmp_path, capsys):
        path = str(tmp_path / "acl.txt")
        assert main(["generate", "--style", "acl", "--rules", "50",
                     "--seed", "5", "--out", path]) == 0
        capsys.readouterr()
        outs = []
        for _ in range(2):
            assert main(["runtime", path, "--trace", "400",
                         "--seed", "9", "--json"]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        # Same seed -> identical trace -> identical match counters.
        assert (outs[0]["telemetry"]["counters"]
                == outs[1]["telemetry"]["counters"])
