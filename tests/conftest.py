"""Shared fixtures: the paper's worked examples and small random inputs."""

from __future__ import annotations

import random

import pytest

from repro.core import Classifier, make_rule, uniform_schema
from repro.core.packet import headers_array


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def example1_classifier():
    """Example 1 / Figure 2: order-independent, two 5-bit fields."""
    schema = uniform_schema(2, 5)
    return Classifier(
        schema,
        [
            make_rule([(1, 3), (4, 31)], name="R1"),
            make_rule([(4, 4), (2, 30)], name="R2"),
            make_rule([(7, 9), (5, 21)], name="R3"),
        ],
    )


@pytest.fixture
def example2_classifier():
    """Example 2 / Figure 3: three 5-bit fields; field 0 suffices."""
    schema = uniform_schema(3, 5)
    return Classifier(
        schema,
        [
            make_rule([(1, 3), (4, 31), (1, 28)], name="R1"),
            make_rule([(4, 4), (2, 30), (4, 27)], name="R2"),
            make_rule([(7, 9), (5, 21), (3, 18)], name="R3"),
        ],
    )


@pytest.fixture
def example3_classifier():
    """Example 3 / Figure 4: order-dependent, splits into two groups."""
    schema = uniform_schema(3, 4)
    return Classifier(
        schema,
        [
            make_rule([(5, 10), (4, 7), (4, 5)], name="R1"),
            make_rule([(1, 4), (4, 7), (4, 5)], name="R2"),
            make_rule([(1, 9), (1, 3), (4, 6)], name="R3"),
            make_rule([(1, 9), (4, 7), (1, 3)], name="R4"),
            make_rule([(1, 9), (4, 7), (5, 6)], name="R5"),
        ],
    )


@pytest.fixture
def example5_classifier():
    """Example 5 / Figure 5: sending R3 and R5 to D leaves one group."""
    schema = uniform_schema(3, 5)
    return Classifier(
        schema,
        [
            make_rule([(5, 9), (4, 4), (4, 4)], name="R1"),
            make_rule([(2, 4), (5, 7), (5, 5)], name="R2"),
            make_rule([(2, 3), (1, 4), (4, 6)], name="R3"),
            make_rule([(1, 5), (1, 7), (1, 3)], name="R4"),
            make_rule([(1, 9), (1, 7), (1, 6)], name="R5"),
        ],
    )


@pytest.fixture
def example10_classifier():
    """Example 10 / Figure 7: dynamic insertion with budget C."""
    schema = uniform_schema(3, 4)
    return Classifier(
        schema,
        [
            make_rule([(1, 3), (4, 8), (1, 5)], name="R1"),
            make_rule([(7, 7), (1, 8), (4, 5)], name="R2"),
            make_rule([(4, 5), (6, 9), (4, 6)], name="R3"),
        ],
    )


def random_classifier(
    rng: random.Random,
    num_rules: int = 30,
    num_fields: int = 3,
    width: int = 6,
    max_span: int = 8,
) -> Classifier:
    """A small random classifier for property-style tests (arbitrary
    overlap patterns, so generally order-dependent)."""
    schema = uniform_schema(num_fields, width)
    max_value = (1 << width) - 1
    rules = []
    for _ in range(num_rules):
        ranges = []
        for _f in range(num_fields):
            if rng.random() < 0.2:
                ranges.append((0, max_value))
            else:
                low = rng.randint(0, max_value)
                high = min(max_value, low + rng.randint(0, max_span))
                ranges.append((low, high))
        rules.append(make_rule(ranges))
    return Classifier(schema, rules)


def assert_groups_agree(software, headers) -> None:
    """A :class:`~repro.lookup.group_engine.MultiGroupEngine` answers
    each header, one at a time and batched, with the first live group
    member that matches it (-1 for none).  Holds for any groups whose
    members are order-independent on the group's fields, such as the
    paper's l-MGR groups."""
    k = software.classifier
    members = sorted(
        int(r) for index in software.groups for r in index.rule_ids if r >= 0
    )
    want = [
        next((j for j in members if k.body[j].matches(h)), -1)
        for h in headers
    ]
    single = [software.lookup(h) for h in headers]
    assert [-1 if r is None else r for r in single] == want
    harr = headers_array(headers, k.schema)
    assert software.lookup_batch(harr).tolist() == want
