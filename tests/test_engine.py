"""Tests for the hybrid SaxPacEngine — the headline deliverable."""

import collections
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.mgr import independent_split, l_mgr
from repro.analysis.mrc import greedy_independent_set
from repro.core import Classifier, make_rule, uniform_schema
from repro.lookup.backends import LINEAR_CUTOVER
from repro.lookup.cascading import CascadingTwoFieldIndex
from repro.lookup.group_engine import MultiGroupEngine
from repro.saxpac.config import EngineConfig
from repro.saxpac.engine import SaxPacEngine, _DTable
from repro.tcam.encoding import BinaryRangeEncoder, SrgeRangeEncoder
from repro.tcam.tcam import build_tcam
from repro.workloads.generator import generate_classifier
from conftest import random_classifier


def _churned(classifier: Classifier, seed: int) -> Classifier:
    """``classifier`` with two rules removed and two fresh ones inserted
    — surviving Rule objects are reused, so a rebuild stays incremental."""
    rng = random.Random(seed)
    body = list(classifier.body)
    for index in sorted(rng.sample(range(len(body)), 2), reverse=True):
        del body[index]
    donor = generate_classifier("fw", 64, seed + 1)
    for rule in donor.body[:2]:
        body.insert(rng.randint(0, len(body)), rule)
    return Classifier(classifier.schema, body)


def assert_same_d_table(got: _DTable, want: _DTable) -> None:
    """Two D tables with the same labels, breakpoints and bit rows."""
    assert got.labels.tolist() == want.labels.tolist()
    assert len(got.cuts) == len(want.cuts) == len(got.rows)
    for cuts, fresh in zip(got.cuts, want.cuts):
        assert cuts.tolist() == fresh.tolist()
    for rows, fresh in zip(got.rows, want.rows):
        assert rows.dtype == np.uint64
        assert np.array_equal(rows, fresh)


def assert_engine_invariants(engine: SaxPacEngine) -> None:
    """The structure every build and rebuild must leave behind:

    * each group is an interval index, pairwise disjoint on its one key
      field (tombstoned slots ignored) — what makes the group's single
      candidate exact;
    * D is sorted ascending — what makes its first hit the first match;
    * every live body rule sits in exactly one group or in D;
    * under ``enforce_cache``, no group rule intersects a lower-index D
      rule — what lets a verified group hit skip D;
    * D's bit-vector table equals one built fresh from D's rules.
    """
    k = engine.classifier
    lows, highs = k.bounds_arrays()
    d = list(engine.grouping.ungrouped)
    assert tuple(d) == tuple(engine._d_indices)
    assert_same_d_table(engine._d_table, _DTable.build(k, d))
    assert d == sorted(set(d))
    placed = list(d)
    assert len(engine.grouping.groups) == len(engine.software.groups)
    for group, index in zip(engine.grouping.groups, engine.software.groups):
        live = index.rule_ids[index.rule_ids >= 0]
        assert sorted(group.rule_indices) == sorted(live.tolist())
        assert index.backend == "interval" and len(index.fields) == 1
        (key,) = index.fields
        order = sorted(live.tolist(), key=lambda r: lows[r, key])
        for a, b in zip(order, order[1:]):
            assert lows[b, key] > highs[a, key], (a, b, key)
        placed.extend(live.tolist())
    assert sorted(placed) == list(range(len(k.body)))
    grouped = np.asarray(placed[len(d):], dtype=np.int64)
    if engine.config.enforce_cache and d and grouped.size:
        dd = np.asarray(d, dtype=np.int64)
        meets = (
            (lows[dd][None, :, :] <= highs[grouped][:, None, :])
            & (lows[grouped][:, None, :] <= highs[dd][None, :, :])
        ).all(axis=2)
        meets &= dd[None, :] < grouped[:, None]
        assert not meets.any(), np.argwhere(meets)[:5]


def _corner_headers(classifier: Classifier, rng, rules: int = 40):
    """Each field at a rule bound or one past it (clamped), for a sample
    of ``rules`` body rules, plus as many uniform headers."""
    body = classifier.body
    tops = [spec.max_value for spec in classifier.schema]
    headers = [
        tuple(rng.randint(0, top) for top in tops) for _ in range(rules)
    ]
    for rule in rng.sample(body, min(rules, len(body))):
        for pick in range(4):
            header = []
            for iv, top in zip(rule.intervals, tops):
                value = (iv.low, iv.high, iv.low - 1, iv.high + 1)[
                    (pick + rng.randrange(4)) % 4
                ]
                header.append(min(top, max(0, value)))
            headers.append(tuple(header))
    return headers


def _assert_byte_identical(
    engine: SaxPacEngine, k: Classifier, seed: int = 0, rules: int = 40
):
    """Batched, small-batch and single-header answers equal
    ``Classifier.match_batch`` on corner-point headers of ``rules``
    sampled rules."""
    headers = _corner_headers(k, random.Random(seed), rules)
    want = [m.index for m in k.match_batch(headers)]
    assert engine.match_batch_indices(headers).tolist() == want
    assert engine.match_batch_indices(headers[:5]).tolist() == want[:5]
    # Single headers take each group's per-header probe; the corner
    # points sit at the end of ``headers``.
    tail = headers[-4 * rules:]
    assert [engine.match(h).index for h in tail] == want[-4 * rules:]


def _grouped_random_classifier(rng, num_rules: int = 80) -> Classifier:
    """A random classifier with arbitrary overlap that is still large
    and sparse enough (10-bit fields, spans up to 32) for the default
    engine to form groups of :data:`LINEAR_CUTOVER` rules and more, next
    to a D of overlapping rules — so the tests below exercise the
    group/D merge, not only D's scan."""
    return random_classifier(rng, num_rules=num_rules, width=10, max_span=32)


def _assert_grouped(engine: SaxPacEngine) -> None:
    """The engine formed groups and kept a D, and holds its invariants."""
    assert engine.grouping.groups
    assert engine.grouping.ungrouped
    assert_engine_invariants(engine)


class TestSemanticEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_default_config_matches_linear_scan(self, seed):
        rng = random.Random(seed)
        k = _grouped_random_classifier(rng)
        engine = SaxPacEngine(k)
        _assert_grouped(engine)
        _assert_byte_identical(engine, k, seed)
        for header in k.sample_headers(200, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(4))
    def test_srge_encoder(self, seed):
        rng = random.Random(100 + seed)
        k = _grouped_random_classifier(rng)
        engine = SaxPacEngine(k, encoder=SrgeRangeEncoder())
        _assert_grouped(engine)
        for header in k.sample_headers(150, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(4))
    def test_beta_capped(self, seed):
        rng = random.Random(200 + seed)
        k = _grouped_random_classifier(rng, num_rules=120)
        engine = SaxPacEngine(k, EngineConfig(max_groups=2))
        _assert_grouped(engine)
        assert len(engine.grouping.groups) <= 2
        assert len(SaxPacEngine(k).grouping.groups) > 2
        for header in k.sample_headers(150, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(4))
    def test_min_group_size_folds_to_tcam(self, seed):
        rng = random.Random(300 + seed)
        k = random_classifier(rng, num_rules=30)
        engine = SaxPacEngine(k, EngineConfig(min_group_size=5))
        _assert_grouped(engine)
        for group in engine.grouping.groups:
            assert group.size >= 5
        # The floor is the whole rule: no group under the default one.
        assert not SaxPacEngine(k).grouping.groups
        for header in k.sample_headers(150, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(6))
    def test_enforce_cache_still_equivalent(self, seed):
        rng = random.Random(400 + seed)
        k = _grouped_random_classifier(rng)
        engine = SaxPacEngine(k, EngineConfig(enforce_cache=True))
        _assert_grouped(engine)
        _assert_byte_identical(engine, k, seed)
        for header in k.sample_headers(200, rng):
            assert engine.match(header).index == k.match(header).index

    @pytest.mark.parametrize("seed", range(4))
    def test_cascading_structure_equivalent(self, seed):
        """The fractionally-cascaded two-field index, built over each
        two-field group of the paper's l-MGR grouping, answers every
        probe exactly as the group's segment-tree index does; the
        serving engine stays byte-identical."""
        rng = random.Random(600 + seed)
        k = _grouped_random_classifier(rng)
        engine = SaxPacEngine(k)
        _assert_grouped(engine)
        headers = k.sample_headers(200, rng)
        for header in headers:
            assert engine.match(header).index == k.match(header).index
        grouping = independent_split(k)
        software = MultiGroupEngine(k, grouping.groups, backend="segment")
        two_field = [g for g in software.groups if len(g.fields) == 2]
        assert two_field
        for index in two_field:
            a, b = index.fields
            cascaded = CascadingTwoFieldIndex(
                (k.rules[r].intervals[a], k.rules[r].intervals[b], int(r))
                for r in index.rule_ids
            )
            for header in headers:
                got = cascaded.lookup(header[a], header[b])
                assert got == index.probe(header)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_group_field_budget(self, l):
        """l steers only :class:`DynamicSaxPac`: the engine's groups are
        one-field iSets whatever it is."""
        rng = random.Random(500 + l)
        k = _grouped_random_classifier(rng)
        engine = SaxPacEngine(k, EngineConfig(max_group_fields=l))
        _assert_grouped(engine)
        assert engine.grouping == SaxPacEngine(k).grouping
        for group in engine.grouping.groups:
            assert len(group.fields) == 1
        for header in k.sample_headers(100, rng):
            assert engine.match(header).index == k.match(header).index

    def test_order_independent_classifier_all_software(
        self, example2_classifier
    ):
        k = example2_classifier
        # The paper's split (Section 4): all three rules are
        # order-independent, so one l-MGR group holds them and D is empty.
        independent = greedy_independent_set(k)
        assert independent.size == 3
        grouping = l_mgr(k, l=2, rule_subset=independent.rule_indices)
        assert grouping.covered == 3 and grouping.ungrouped == ()
        # The engine's split: no iSet reaches the size floor, so the
        # three rules are served from D.
        report = SaxPacEngine(k).report()
        assert report.software_rules == 0
        assert report.tcam_rules == 3
        _assert_byte_identical(SaxPacEngine(k), k)

    def test_fully_dependent_goes_to_tcam(self):
        schema = uniform_schema(1, 6)
        # Nested intervals: every pair intersects.
        k = Classifier(
            schema,
            [make_rule([(0, 40)]), make_rule([(0, 30)]), make_rule([(0, 20)])],
        )
        # The paper's split: greedy I keeps the first rule; the nested
        # rest goes to D.
        assert greedy_independent_set(k).complement(3) == (1, 2)
        # The engine's split: a one-field iSet holds one nested rule at
        # most, far below the size floor, so all three go to D.
        engine = SaxPacEngine(k)
        report = engine.report()
        assert report.tcam_rules == 3 and report.num_groups == 0
        rng = random.Random(1)
        for header in k.sample_headers(50, rng):
            assert engine.match(header).index == k.match(header).index
        _assert_byte_identical(engine, k)


class TestCacheSkip:
    def test_d_lookup_skipped_on_software_hit(self):
        # LINEAR_CUTOVER + 4 pairwise-disjoint rules form one iSet; the
        # last rule overlaps the first two and lands in D.
        schema = uniform_schema(1, 10)
        disjoint = [
            make_rule([(40 * i, 40 * i + 10)])
            for i in range(LINEAR_CUTOVER + 4)
        ]
        k = Classifier(schema, disjoint + [make_rule([(5, 45)])])
        engine = SaxPacEngine(k, EngineConfig(enforce_cache=True))
        assert engine.report().num_groups == 1
        assert_engine_invariants(engine)
        before = engine.d_lookups_skipped
        hits = 0
        rng = random.Random(2)
        for header in k.sample_headers(100, rng):
            result = engine.match(header)
            assert result.index == k.match(header).index
            if engine.software.lookup(header) is not None:
                hits += 1
        assert hits > 0
        assert engine.d_lookups_skipped - before > 0


class TestReport:
    def test_report_arithmetic(self, example3_classifier):
        engine = SaxPacEngine(example3_classifier)
        report = engine.report()
        assert report.total_rules == 5
        assert report.software_rules + report.tcam_rules == 5
        assert 0.0 <= report.software_fraction <= 1.0
        assert report.tcam_entries <= report.tcam_entries_full
        assert 0.0 <= report.tcam_saving <= 1.0

    def test_group_fields_reported(self, example3_classifier):
        engine = SaxPacEngine(example3_classifier)
        report = engine.report()
        assert len(report.group_fields) == report.num_groups

    def test_saving_grows_with_software_fraction(self):
        rng = random.Random(3)
        k = random_classifier(rng, num_rules=40)
        default = SaxPacEngine(k).report()
        # Forcing everything to TCAM (tiny group budget, huge min size).
        constrained = SaxPacEngine(
            k, EngineConfig(max_groups=1, min_group_size=10**6)
        ).report()
        assert default.tcam_entries <= constrained.tcam_entries


class TestTcamEntryAccounting:
    """``report().tcam_entries`` is counted per rule, not programmed, and
    must equal the rows a programmed TCAM of D would hold."""

    @pytest.mark.parametrize(
        "encoder", [BinaryRangeEncoder(), SrgeRangeEncoder()],
        ids=lambda e: e.name,
    )
    @pytest.mark.parametrize("incremental", [False, True])
    def test_matches_programmed_tcam(self, encoder, incremental):
        classifier = generate_classifier("fw", 500, 3)
        engine = SaxPacEngine(classifier, encoder=encoder)
        if incremental:
            engine = engine.rebuild(_churned(classifier, 5))
            assert engine.build_incremental
        report = engine.report()
        assert report.tcam_rules > 0
        k = engine.classifier
        tcam, _view = build_tcam(
            k, encoder, rule_indices=engine.grouping.ungrouped
        )
        assert report == dataclasses.replace(report, tcam_entries=len(tcam))


class TestNoTcamOnServingPath:
    """Build, rebuild, lookup and reporting never program a TCAM."""

    @pytest.fixture
    def no_tcam(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Tcam was constructed")

        monkeypatch.setattr("repro.tcam.tcam.Tcam.__init__", refuse)

    def test_engine_lifecycle(self, no_tcam):
        classifier = generate_classifier("acl", 400, 4)
        engine = SaxPacEngine(classifier)
        headers = classifier.sample_headers(100, random.Random(6))
        incremental = engine.rebuild(_churned(classifier, 7))
        assert incremental.build_incremental
        full = engine.rebuild(generate_classifier("acl", 300, 8))
        assert not full.build_incremental
        for built in (engine, incremental, full):
            k = built.classifier
            want = [m.index for m in k.match_batch(headers)]
            assert built.match_batch_indices(headers).tolist() == want
            assert [built.match(h).index for h in headers[:20]] == want[:20]
            assert built.report().is_sane()

    def test_runtime_service_with_updates(self, no_tcam):
        from repro.runtime.service import RuntimeService

        classifier = generate_classifier("acl", 200, 9)
        donor = generate_classifier("acl", 8, 10)
        with RuntimeService(classifier) as service:
            inserted = service.insert(donor.body[0])
            assert inserted.accepted
            service.remove(inserted.rule_id)
            headers = classifier.sample_headers(50, random.Random(11))
            k = service.serving_classifier()
            assert service.match_indices(headers).tolist() == [
                m.index for m in k.match_batch(headers)
            ]
            assert service.engine_report() is not None


def _wide_classifier(count: int, seed: int, width: int = 128) -> Classifier:
    """Three fields over 62 bits (object-dtype bounds): field 0 mostly
    long prefixes, so one-field iSets form, the other fields mixed."""
    rng = random.Random(seed)
    top = (1 << width) - 1

    def prefix(shortest: int, longest: int):
        plen = rng.randint(shortest, longest)
        low = rng.getrandbits(plen) << (width - plen)
        return low, low | ((1 << (width - plen)) - 1)

    def any_range():
        kind = rng.random()
        if kind < 0.3:
            return 0, top
        if kind < 0.7:
            return prefix(1, width)
        return tuple(sorted((rng.randint(0, top), rng.randint(0, top))))

    rules = [
        make_rule([
            prefix(8, width) if rng.random() < 0.8 else any_range(),
            any_range(),
            any_range(),
        ])
        for _ in range(count)
    ]
    return Classifier(uniform_schema(3, width), rules)


_CHAIN_BASE = 150
_CHAIN_STEPS = 200


def _chain_inputs(style: str):
    """(base classifier, pool of fresh rules to insert) for one style."""
    if style == "wide":
        return (
            _wide_classifier(_CHAIN_BASE, 1),
            list(_wide_classifier(300, 2).body),
        )
    return (
        generate_classifier(style, _CHAIN_BASE, 1),
        list(generate_classifier(style, 300, 2).body),
    )


class TestChainedRebuilds:
    """Hundreds of chained :meth:`SaxPacEngine.rebuild` calls under mixed
    insert/remove churn: small steps stay incremental and pile up
    tombstones and D rules, and every tenth step is a burst of roughly
    :data:`SaxPacEngine.STALENESS_LIMIT` of the rule set, landing on
    either side of the full-rebuild cutover.  After every step the
    engine keeps its invariants and answers corner-point headers exactly
    as ``Classifier.match_batch``.  Under ``enforce_cache`` every rebuild
    is a full build, so a shorter chain covers it."""

    @pytest.mark.parametrize("enforce_cache", [False, True])
    @pytest.mark.parametrize("style", ["acl", "fw", "ipc", "wide"])
    @settings(
        max_examples=1,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(data=st.data())
    def test_invariants_hold_through_churn(self, style, enforce_cache, data):
        base, pool = _chain_inputs(style)
        config = EngineConfig(
            max_groups=data.draw(st.sampled_from([None, 2]), label="beta"),
            enforce_cache=enforce_cache,
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = random.Random(seed)
        engine = SaxPacEngine(base, config)
        assert engine.grouping.groups
        assert_engine_invariants(engine)
        body = list(base.body)
        # Removed rules go back to the pool: re-inserting the same object
        # later is an addition to the identity diff like any other.
        pool = collections.deque(pool)
        kinds = set()
        steps = _CHAIN_STEPS // 4 if enforce_cache else _CHAIN_STEPS
        for step in range(steps):
            if step % 10 == 9:
                share = data.draw(st.floats(0.1, 0.4), label="burst")
                ops = max(1, int(share * len(body)))
            else:
                ops = data.draw(st.integers(1, 3), label="ops")
            removes = rng.randint(0, ops)
            removes = min(removes, len(body) - LINEAR_CUTOVER)
            for _ in range(ops - removes):
                body.insert(rng.randint(0, len(body)), pool.popleft())
            for _ in range(removes):
                pool.append(body.pop(rng.randrange(len(body))))
            current = Classifier(base.schema, body)
            engine = engine.rebuild(current)
            kinds.add(engine.build_incremental)
            assert_engine_invariants(engine)
            _assert_byte_identical(engine, current, seed=step, rules=4)
        assert kinds == ({False} if enforce_cache else {False, True})


class TestRebuildPlacement:
    """An incremental rebuild fits each added rule into a carried
    group's key-field gap before it partitions the rest, so single-rule
    inserts do not pile up in D until churn forces a full build."""

    @pytest.mark.parametrize("style", ["acl", "fw", "ipc"])
    def test_single_inserts_keep_d_bounded(self, style):
        base = generate_classifier(style, 1000, 3)
        pool = generate_classifier(style, 50, 4).body
        engine = first = SaxPacEngine(base)
        d_before = len(engine.grouping.ungrouped)
        fresh = {id(rule) for rule in pool}
        body = list(base.body)
        rng = random.Random(5)
        for rule in pool:
            body.insert(rng.randint(0, len(body)), rule)
            current = Classifier(base.schema, body)
            engine = engine.rebuild(current)
            assert engine.build_incremental
            assert_engine_invariants(engine)
        lows, highs = current.bounds_arrays()
        spilled = [
            r for r in engine.grouping.ungrouped if id(body[r]) in fresh
        ]
        # A fresh rule is in D only if no group had a free gap for it.
        for r in spilled:
            for group in engine.grouping.groups:
                (key,) = group.fields
                members = np.asarray(group.rule_indices)
                assert (
                    (lows[members, key] <= highs[r, key])
                    & (lows[r, key] <= highs[members, key])
                ).any()
        assert len(engine.grouping.ungrouped) == d_before + len(spilled)
        assert len(spilled) < len(pool) // 5
        _assert_byte_identical(engine, current)
        # Extending a group copies it: the first engine still serves the
        # base rule set.
        _assert_byte_identical(first, base)


    def test_added_rule_overlapping_a_tombstone(self):
        """A removed member's slot stays as a tombstone, and an added
        rule may take its key range: the extended index must still find
        the added rule where the two overlap."""
        schema = uniform_schema(1, 10)
        body = [make_rule([(10 * i, 10 * i + 4)]) for i in range(20)]
        engine = SaxPacEngine(Classifier(schema, body))
        assert engine.report().num_groups == 1
        del body[5]  # [50, 54]
        body.insert(3, make_rule([(46, 52)]))
        current = Classifier(schema, body)
        engine = engine.rebuild(current)
        assert engine.build_incremental
        assert engine.report().num_groups == 1
        assert_engine_invariants(engine)
        headers = [(v,) for v in range(40, 70)]
        want = [m.index for m in current.match_batch(headers)]
        assert engine.match_batch_indices(headers).tolist() == want
        assert [engine.match(h).index for h in headers] == want


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(max_group_fields=0)
        with pytest.raises(ValueError):
            EngineConfig(max_groups=0)
        with pytest.raises(ValueError):
            EngineConfig(min_group_size=0)
        with pytest.raises(ValueError):
            EngineConfig(fp_budget=0)
