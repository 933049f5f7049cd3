"""Self-tests of the served-stack benchmark.

Run from the root of a checkout::

    python3 -m pytest stackbench -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import run
from oracle import Oracle, first_match, inserted_at
from repro.core.classifier import Classifier
from repro.core.intervals import Interval
from repro.core.rule import Rule
from repro.workloads.generator import generate_classifier
from repro.workloads.traces import generate_trace
from tracing import SpanRecorder, self_cpu, self_times


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs
    # past the parent's end; the grandchild [1.5, 2] must not count
    # against the parent.
    sids = [0, 1, 2, 3, 4]
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.0]
    out = self_times(starts, ends, parents, sids)
    np.testing.assert_allclose(out, [10 - 4 - 2, 2 - 0.5, 3, 4, 0.5])


def test_self_cpu_subtracts_the_children():
    sids = [0, 1, 2, 3]
    parents = [-1, 0, 0, 1]
    cpu = [9.0, 4.0, 2.0, 1.5]
    np.testing.assert_allclose(
        self_cpu(cpu, parents, sids), [9 - 4 - 2, 4 - 1.5, 2, 1.5]
    )


def test_recorder_nests_spans_and_restores_methods():
    class Inner:
        def probe_batch(self, headers):
            return len(headers)

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def lookup_batch(self, headers):
            return self.inner.probe_batch(headers) * 2

    original = Outer.lookup_batch
    recorder = SpanRecorder()
    recorder.install([(Outer, "lookup_batch"), (Inner, "probe_batch")])
    assert Outer().lookup_batch([1, 2, 3]) == 6
    recorder.uninstall()
    assert Outer.lookup_batch is original
    cols = recorder.arrays()
    names = [recorder.names[int(i)] for i in cols["name"]]
    assert sorted(names) == ["Inner.probe_batch", "Outer.lookup_batch"]
    inner = names.index("Inner.probe_batch")
    outer = names.index("Outer.lookup_batch")
    assert cols["parent"][inner] == cols["sid"][outer]
    assert cols["root"][inner] == cols["sid"][outer]
    assert cols["n"][inner] == 3
    assert 0.0 <= cols["cpu"][inner] <= cols["cpu"][outer]


@pytest.fixture(scope="module")
def small():
    classifier = generate_classifier("acl", 60, 5)
    # Pool rule 0 covers the lower half of the source addresses, so
    # packets that fall through to the catch-all answer differently
    # under each generation of the update schedule.
    half = Rule(
        (Interval(0, (1 << 31) - 1),)
        + tuple(Interval(0, spec.max_value) for spec in classifier.schema[1:]),
        classifier.catch_all.action,
    )
    pool = (half,) + generate_classifier("acl", 8, 6).body
    packets = np.asarray(generate_trace(classifier, 256, 5), dtype=np.uint32)
    blocks = list(packets.reshape(16, 16, -1))
    return classifier, pool, blocks, Oracle(classifier, blocks, pool)


def test_reference_agrees_with_classifier_match(small):
    classifier, pool, blocks, oracle = small
    for block in blocks[:4]:
        want = [classifier.match(tuple(int(v) for v in p)).index
                for p in block]
        assert first_match(classifier.rules, block).tolist() == want
    # Generation 2 holds pool rule 0 inserted above the catch-all.
    extended = Classifier(
        classifier.schema, classifier.body + (pool[0],),
        default_action=classifier.catch_all.action,
    )
    assert inserted_at(2, len(pool)) == 0
    for b, block in enumerate(blocks[:4]):
        want = [extended.match(tuple(int(v) for v in p)).index
                for p in block]
        assert oracle.expected(b, 2).tolist() == want


def test_oracle_rejects_a_corrupted_answer(small):
    _, _, _, oracle = small
    answer = oracle.expected(0, 1).astype(np.uint32)
    assert oracle.check(0, answer, 1, 1)
    corrupted = answer.copy()
    corrupted[3] += 1
    assert not oracle.check(0, corrupted, 1, 1)


def test_oracle_rejects_a_stale_generation(small):
    _, _, blocks, oracle = small
    # A block whose answer under generation 2 (pool rule 0 inserted)
    # differs from those of generations 3 (removed) and 4 (pool rule 1).
    block = next(
        b for b in range(len(blocks))
        if not any(
            np.array_equal(oracle.expected(b, 2), oracle.expected(b, g))
            for g in (3, 4)
        )
    )
    stale = oracle.expected(block, 2)
    # The answer of generation 2 is fine while 2 may still serve ...
    assert oracle.check(block, stale, 2, 3)
    # ... and wrong once a stamp of 3 has been seen before the send.
    assert not oracle.check(block, stale, 3, 4)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(monkeypatch, trace):
    tiny = run.Workload("fw", 150, 64, 8, 32)
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "WARMUP_S", 0.2)
    monkeypatch.setattr(run, "SEGMENTS", 2)
    monkeypatch.setattr(run, "UPDATE_PAIRS", 2)
    bench = run.Bench("tiny", seed=3, seconds=0.5)
    try:
        metrics = bench.per_layer() if trace else bench.end_to_end()
    finally:
        bench.close()
    assert bench.driver.attempted > 0
    assert bench.driver.failed == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
