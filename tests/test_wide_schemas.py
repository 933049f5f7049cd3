"""Fields wider than 62 bits: the engine serves them from Python-object
bounds (:meth:`Classifier.bounds_arrays`), so values around 2**63 and up
to 2**128 - 1 must compare exactly on every path — the group probes of
every lookup backend over the paper's l-MGR groups, the order-dependent
part D, the scalar adapter and a rebuilt engine.  The rules mix
arbitrary ranges, prefixes and wildcards, so D is large and a
full-width TCAM of it would expand to millions of rows; nothing here may
program one.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.analysis.mgr import independent_split
from repro.core import Classifier, make_rule, uniform_schema
from repro.lookup.group_engine import MultiGroupEngine
from repro.saxpac.engine import SaxPacEngine
from conftest import assert_groups_agree

FIELDS = 3


def _wide_classifier(width: int, count: int, seed: int) -> Classifier:
    rng = random.Random(seed)
    top = (1 << width) - 1
    rules = []
    for _ in range(count):
        ranges: List[Tuple[int, int]] = []
        for _f in range(FIELDS):
            kind = rng.random()
            if kind < 0.2:
                ranges.append((0, top))
            elif kind < 0.6:
                plen = rng.randint(1, width)
                low = rng.getrandbits(plen) << (width - plen)
                ranges.append((low, low | ((1 << (width - plen)) - 1)))
            else:
                a, b = sorted((rng.randint(0, top), rng.randint(0, top)))
                ranges.append((a, b))
        rules.append(make_rule(ranges))
    return Classifier(uniform_schema(FIELDS, width), rules)


def _headers(classifier: Classifier, seed: int) -> List[Tuple[int, ...]]:
    """Random headers plus every rule's corners and the values one
    outside them (clamped to the field range)."""
    rng = random.Random(seed)
    top = classifier.schema[0].max_value
    headers = [
        tuple(rng.randint(0, top) for _ in range(FIELDS)) for _ in range(40)
    ]
    for rule in classifier.body:
        lows = [iv.low for iv in rule.intervals]
        highs = [iv.high for iv in rule.intervals]
        headers.append(tuple(lows))
        headers.append(tuple(highs))
        headers.append(tuple(max(0, v - 1) for v in lows))
        headers.append(tuple(min(top, v + 1) for v in highs))
    return headers


def _assert_agrees(engine: SaxPacEngine, headers) -> None:
    want = [m.index for m in engine.classifier.match_batch(headers)]
    assert engine.match_batch_indices(headers).tolist() == want
    assert [engine.match(h).index for h in headers] == want


@pytest.mark.parametrize("backend", ["auto", "linear", "interval", "segment"])
@pytest.mark.parametrize(
    "width, count", [(64, 60), (128, 30)], ids=["64bit", "128bit"]
)
def test_engine_agrees_before_and_after_rebuild(width, count, backend):
    """The paper's l-MGR groups under each lookup backend agree with a
    first-match scan of their members, on the classifier and after one
    removal and one insertion; the ``auto`` lane also runs the serving
    engine, which has no backend to choose, through its rebuild."""
    classifier = _wide_classifier(width, count, seed=width + 3)
    # One removal and one fresh rule: incremental, same Rule objects.
    body = list(classifier.body)
    del body[len(body) // 2]
    body.insert(1, _wide_classifier(width, 1, seed=width + 4).body[0])
    changed = Classifier(classifier.schema, body)
    for k, seed in ((classifier, 1), (changed, 2)):
        groups = independent_split(k).groups
        assert groups
        software = MultiGroupEngine(k, groups, backend=backend)
        assert_groups_agree(software, _headers(k, seed))
    if backend != "auto":
        return

    engine = SaxPacEngine(classifier)
    report = engine.report()
    assert report.tcam_rules > 0 and report.is_sane()
    _assert_agrees(engine, _headers(classifier, seed=1))
    rebuilt = engine.rebuild(changed)
    assert rebuilt.build_incremental
    _assert_agrees(rebuilt, _headers(changed, seed=2))
