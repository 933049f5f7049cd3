"""Differential fuzzing: the hybrid engine vs the linear reference.

Theorems 1-2 make :class:`SaxPacEngine` *equivalent* to the first-match
linear scan, never an approximation — so any disagreement is a bug, and
the cheapest place to find one is on adversarial **corner-point**
packets: headers whose field values sit exactly on some rule's interval
endpoints (or one past them), where off-by-one errors in containment,
projection and TCAM expansion live.

Axes of coverage:

* random small classifiers with arbitrary overlap (hypothesis-built),
  served by the default engine and by engines whose size floor of 1 lets
  every iSet become a group, with and without the MRCC cache property —
  the group/D merge on adversarial overlap — in batches on both sides
  of the interval index's switch from bisect to ``searchsorted``;
* ClassBench-style acl/fw/ipc classifiers from the workload generator;
* engines that have been through :meth:`SaxPacEngine.rebuild` (the
  incremental path the hot-swap runtime exercises);
* every lookup backend of the paper's ablation over the paper's l-MGR
  groups, fresh and relabeled and tombstoned the way a rebuild carries
  a group, against a first-match scan of the group members;
* the shared-memory shard transport (``shard_mode=shm``), whose workers
  classify slab views in other processes yet must answer identically;
* D's bit-vector kernel on its own, against a first-match scan of D's
  rules, at word-boundary sizes, every bound ±1, out-of-range values
  and a >62-bit schema.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.mgr import MGRResult, independent_split
from repro.core import make_rule, uniform_schema
from repro.core.classifier import Classifier
from repro.core.packet import headers_array
from repro.lookup.group_engine import MultiGroupEngine
from repro.runtime.shard import ShardedRuntime
from repro.runtime.telemetry import NULL_RECORDER
from repro.saxpac.config import EngineConfig
from repro.saxpac.engine import SaxPacEngine
from repro.tcam.encoding import BinaryRangeEncoder
from repro.workloads.generator import generate_classifier
from conftest import assert_groups_agree
from strategies import classifiers, corner_headers_for, rules

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_HEADERS_PER_EXAMPLE = 12

STYLES = ("acl", "fw", "ipc")

BACKENDS = ("auto", "interval", "segment", "linear")


def _assert_agrees(engine, reference: Classifier, headers) -> None:
    """Single-packet and batched answers must equal the linear scan."""
    want = [reference.match(h).index for h in headers]
    got_single = [engine.match(h).index for h in headers]
    assert got_single == want
    got_batch = [r.index for r in engine.match_batch(headers)]
    assert got_batch == want


#: Size floor 1: small random classifiers form groups too, so the merge
#: of groups and D by lowest index meets arbitrary overlap.
GROUPED = (
    EngineConfig(min_group_size=1),
    EngineConfig(min_group_size=1, enforce_cache=True),
)


#: Batch sizes around ``_IntervalGroupIndex.VECTOR_MIN_BATCH`` (12),
#: where a group's per-header bisect hands over to ``searchsorted``.
_BATCH_SIZES = (0, 11, 12, 13)


def _random_classifier_agrees(data, config: EngineConfig) -> None:
    k = data.draw(classifiers(max_rules=16))
    engine = SaxPacEngine(k, config)
    if config.min_group_size == 1 and k.body:
        assert engine.grouping.groups
    headers = [
        data.draw(corner_headers_for(k))
        for _ in range(max(_BATCH_SIZES))
    ]
    _assert_agrees(engine, k, headers)
    want = [k.match(h).index for h in headers]
    for size in _BATCH_SIZES:
        got = engine.match_batch_indices(headers[:size]).tolist()
        assert got == want[:size], size


class TestRandomClassifiers:
    @given(st.data())
    @_SETTINGS
    def test_corner_points_agree(self, data):
        _random_classifier_agrees(data, EngineConfig())

    @pytest.mark.parametrize("config", GROUPED, ids=("floor1", "cache"))
    @given(data=st.data())
    @_SETTINGS
    def test_corner_points_agree_grouped(self, config, data):
        _random_classifier_agrees(data, config)


# Built once per module: the generator and the engine build dominate the
# runtime, the hypothesis examples only pick corner headers.
@pytest.fixture(scope="module", params=STYLES)
def styled_engine(request):
    classifier = generate_classifier(request.param, 90, seed=97)
    return classifier, SaxPacEngine(classifier)


@pytest.fixture(scope="module", params=STYLES)
def rebuilt_engine(request):
    """An engine that served a truncated rule set, then went through
    ``rebuild`` to the full one — the hot-swap incremental path."""
    classifier = generate_classifier(request.param, 90, seed=131)
    truncated = Classifier(classifier.schema, classifier.body[:60])
    engine = SaxPacEngine(truncated).rebuild(classifier)
    return classifier, engine


class TestClassBenchStyles:
    @given(st.data())
    @_SETTINGS
    def test_corner_points_agree(self, styled_engine, data):
        classifier, engine = styled_engine
        headers = [
            data.draw(corner_headers_for(classifier))
            for _ in range(_HEADERS_PER_EXAMPLE)
        ]
        _assert_agrees(engine, classifier, headers)


@pytest.fixture(scope="module", params=BACKENDS)
def backend_engine(request):
    """The paper's l-MGR groups served by one lookup backend."""
    classifier = generate_classifier("acl", 120, seed=211)
    groups = independent_split(classifier).groups
    return classifier, MultiGroupEngine(
        classifier, groups, backend=request.param
    )


@pytest.fixture(scope="module", params=BACKENDS)
def backend_rebuilt_engine(request):
    """Per-backend group indexes carried the way a rebuild carries
    them: every fifth rule is removed, which tombstones its slot, and
    the survivors' slots are relabeled to their shifted indexes."""
    classifier = generate_classifier("fw", 120, seed=223)
    groups = independent_split(classifier).groups
    before = MultiGroupEngine(classifier, groups, backend=request.param)
    kept = [j for j in range(len(classifier.body)) if j % 5 != 2]
    after = Classifier(classifier.schema, [classifier.body[j] for j in kept])
    assert len(after.body) == len(kept)
    old_to_new = np.full(len(classifier.body), -1, dtype=np.int64)
    old_to_new[kept] = np.arange(len(kept))
    carried = [
        index.reindexed(old_to_new[index.rule_ids]) for index in before.groups
    ]
    assert any((index.rule_ids < 0).any() for index in carried)
    return after, MultiGroupEngine(after, (), prebuilt=carried)


class TestPerBackend:
    @given(st.data())
    @_SETTINGS
    def test_corner_points_agree(self, backend_engine, data):
        classifier, software = backend_engine
        headers = [
            data.draw(corner_headers_for(classifier))
            for _ in range(_HEADERS_PER_EXAMPLE)
        ]
        assert_groups_agree(software, headers)

    @given(st.data())
    @_SETTINGS
    def test_corner_points_agree_after_rebuild(
        self, backend_rebuilt_engine, data
    ):
        classifier, software = backend_rebuilt_engine
        headers = [
            data.draw(corner_headers_for(classifier))
            for _ in range(_HEADERS_PER_EXAMPLE)
        ]
        assert_groups_agree(software, headers)


@pytest.fixture(scope="module")
def shm_runtime():
    """The shared-memory shard transport over a ClassBench-style
    classifier; worker processes classify slab views in place, so any
    disagreement with the linear scan is a transport bug, not float
    noise."""
    classifier = generate_classifier("acl", 90, seed=97)
    runtime = ShardedRuntime(
        classifier=classifier, num_shards=2, mode="shm"
    )
    yield classifier, runtime
    runtime.close()


class TestShmShards:
    @given(st.data())
    @_SETTINGS
    def test_corner_points_agree(self, shm_runtime, data):
        classifier, runtime = shm_runtime
        headers = [
            data.draw(corner_headers_for(classifier))
            for _ in range(_HEADERS_PER_EXAMPLE)
        ]
        want = [classifier.match(h).index for h in headers]
        assert list(runtime.match_indices(headers)) == want


def _rebuilt_random_classifier_agrees(data, config: EngineConfig) -> None:
    before = data.draw(classifiers(max_rules=12))
    after = data.draw(classifiers(max_rules=12))
    # Rebuild across schemas is undefined; pin both to one schema.
    after = Classifier(before.schema, after.body)
    engine = SaxPacEngine(before, config).rebuild(after)
    headers = [
        data.draw(corner_headers_for(after))
        for _ in range(_HEADERS_PER_EXAMPLE)
    ]
    _assert_agrees(engine, after, headers)


class TestPostRebuild:
    @given(st.data())
    @_SETTINGS
    def test_corner_points_agree_after_rebuild(self, rebuilt_engine, data):
        classifier, engine = rebuilt_engine
        headers = [
            data.draw(corner_headers_for(classifier))
            for _ in range(_HEADERS_PER_EXAMPLE)
        ]
        _assert_agrees(engine, classifier, headers)

    @given(st.data())
    @_SETTINGS
    def test_rebuild_of_random_classifier(self, data):
        _rebuilt_random_classifier_agrees(data, EngineConfig())

    @given(st.data())
    @_SETTINGS
    def test_rebuild_of_random_classifier_grouped(self, data):
        _rebuilt_random_classifier_agrees(data, GROUPED[0])

    @given(data=st.data())
    @_SETTINGS
    def test_incremental_rebuild_of_random_classifier(self, data):
        """A size-floor-1 engine through the incremental path: one
        carried rule removed (a tombstone when it sat in a group), up to
        two fresh rules placed into carried groups' key-field gaps, new
        groups or D."""
        schema = uniform_schema(3, 5)
        body = data.draw(st.lists(rules(3, 5), min_size=16, max_size=20))
        before = Classifier(schema, body)
        body = list(body)
        del body[data.draw(st.integers(0, len(body) - 1))]
        for rule in data.draw(st.lists(rules(3, 5), min_size=1, max_size=2)):
            body.insert(data.draw(st.integers(0, len(body))), rule)
        after = Classifier(schema, body)
        engine = SaxPacEngine(before, GROUPED[0]).rebuild(after)
        assert engine.build_incremental
        headers = [
            data.draw(corner_headers_for(after))
            for _ in range(_HEADERS_PER_EXAMPLE)
        ]
        _assert_agrees(engine, after, headers)


def _overlapping_rules(rng, count: int, width: int):
    """``count`` rules over three ``width``-bit fields with heavy overlap
    and shared bounds: wildcards, prefixes, points and arbitrary ranges."""
    top = (1 << width) - 1

    def interval():
        kind = rng.random()
        if kind < 0.2:
            return 0, top
        if kind < 0.5:
            free = rng.randint(0, width)
            low = rng.getrandbits(width - free) << free if free < width else 0
            return low, low | ((1 << free) - 1)
        if kind < 0.65:
            value = rng.randint(0, top)
            return value, value
        return tuple(sorted((rng.randint(0, top), rng.randint(0, top))))

    return [make_rule([interval() for _ in range(3)]) for _ in range(count)]


def _d_only_engine(classifier: Classifier, d) -> SaxPacEngine:
    """An engine whose D is exactly the body rules ``d``, with no groups."""
    return SaxPacEngine._from_parts(
        classifier,
        EngineConfig(),
        BinaryRangeEncoder(),
        NULL_RECORDER,
        grouping=MGRResult((), tuple(d), 1),
        software=MultiGroupEngine(classifier, ()),
        d_indices=tuple(d),
        stages=(),
    )


class TestDKernel:
    """``SaxPacEngine._d_match_batch`` against a first-match scan of D's
    rules.  |D| sits on and around the 64-bit word boundaries, every D
    bound is probed at -1/0/+1 with the other fields inside the rule,
    values outside the schema's range are mixed in, and each header set
    goes through in batches of 1, 12 and 1,024."""

    @pytest.mark.parametrize("width", [6, 80], ids=("narrow", "wide"))
    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 130])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_first_match_scan(self, size, width, seed):
        rng = random.Random(seed)
        classifier = Classifier(
            uniform_schema(3, width),
            _overlapping_rules(rng, size + size // 4 + 2, width),
        )
        # A trailing full wildcard becomes the catch-all, so D is drawn
        # from the classifier's body, not from the generated list.
        body = classifier.body
        d = sorted(rng.sample(range(len(body)), size))
        engine = _d_only_engine(classifier, d)
        top = (1 << width) - 1
        far = (1 << 62) - 1 if width <= 62 else 1 << (width + 9)
        outside = (-1, top + 1, far, -far)
        headers = []
        for j in d:
            ivs = body[j].intervals
            for f in range(3):
                for bound in (ivs[f].low, ivs[f].high):
                    for value in (bound - 1, bound, bound + 1):
                        header = [rng.randint(iv.low, iv.high) for iv in ivs]
                        header[f] = value
                        headers.append(tuple(header))
        for _ in range(64):
            headers.append(tuple(
                rng.choice(outside) if rng.random() < 0.3
                else rng.randint(0, top)
                for _ in range(3)
            ))
        rng.shuffle(headers)
        want = [
            next((j for j in d if body[j].matches(h)), -1) for h in headers
        ]
        for batch in (1, 12, 1024):
            got = []
            for at in range(0, len(headers), batch):
                block = headers_array(headers[at:at + batch], classifier.schema)
                got.extend(engine._d_match_batch(block).tolist())
            assert got == want, batch
