"""Ablations of the design choices called out in DESIGN.md.

1. k-MRC greedy scan order: priority order vs most-specific-first.
2. SRGE vs binary expansion across field widths (entry-count ratio).
3. Two-field segment-tree probe vs linear group probe.
4. False-positive budget C vs software placement rate under a tight group
   budget.
"""

import random

import pytest

from repro.analysis.mgr import l_mgr
from repro.analysis.mrc import greedy_independent_set
from repro.bench.harness import bench_rules, cached_suite, format_table
from repro.core import Interval, classbench_schema
from repro.lookup.backends import build_group_index
from repro.lookup.group_engine import LinearGroupIndex
from repro.saxpac.updates import DynamicSaxPac
from repro.tcam.encoding import binary_expand, srge_expand
from repro.workloads.traces import generate_trace


@pytest.fixture(scope="module")
def suite_small():
    return cached_suite(rules=min(bench_rules(), 1000))


def _specificity(rule):
    return sum(iv.size for iv in rule.intervals)


def test_ablation_mrc_scan_order(benchmark, suite_small, save_result):
    """Priority order is the deployment-faithful choice; does it cost
    independent-set size vs a most-specific-first scan?"""

    def run():
        rows = []
        for name, classifier in suite_small.items():
            by_priority = greedy_independent_set(classifier).size
            order = sorted(
                range(len(classifier.body)),
                key=lambda i: _specificity(classifier.rules[i]),
            )
            by_specificity = greedy_independent_set(
                classifier, order=order
            ).size
            rows.append([name, len(classifier.body), by_priority,
                         by_specificity])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_mrc_order",
        format_table(
            ["name", "rules", "k-MRC (priority)", "k-MRC (specific-first)"],
            rows,
            title="Ablation - greedy k-MRC scan order",
        ),
    )


def test_ablation_srge_vs_binary(benchmark, save_result):
    """Average entry counts per random range, by field width."""
    rng = random.Random(17)

    def run():
        rows = []
        for width in (8, 12, 16):
            max_value = (1 << width) - 1
            total_b = total_s = 0
            samples = 300
            for _ in range(samples):
                lo = rng.randint(0, max_value)
                hi = rng.randint(lo, max_value)
                iv = Interval(lo, hi)
                total_b += len(binary_expand(iv, width))
                total_s += len(srge_expand(iv, width))
            rows.append(
                [
                    width,
                    f"{total_b / samples:.2f}",
                    f"{total_s / samples:.2f}",
                    f"{total_b / total_s:.2f}x",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_srge",
        format_table(
            ["width", "binary avg", "srge avg", "binary/srge"],
            rows,
            title="Ablation - range expansion entry counts",
        ),
    )


def test_ablation_cache_power(benchmark, suite_small, save_result):
    """Section 4.3's power argument, measured: the MRCC cache property
    lets an I-match skip the (all-rows-active) TCAM lookup of D entirely.
    A TCAM activates every row on every lookup, so row activations are D
    probes times D's TCAM entries."""
    from repro.analysis.mgr import enforce_cache_property, independent_split
    from repro.lookup.group_engine import MultiGroupEngine
    from repro.runtime.telemetry import Telemetry
    from repro.saxpac.engine import EngineConfig, SaxPacEngine
    from repro.tcam.encoding import BinaryRangeEncoder

    classifier = suite_small["acl3"]
    trace = generate_trace(classifier, 3000, seed=37)

    def run():
        # The paper's split: l-MGR groups over the order-independent
        # part I, the rest in D, served by the engine's own lookup.
        split = independent_split(classifier)
        rows = []
        for enforce in (False, True):
            grouping = (
                enforce_cache_property(classifier, split) if enforce else split
            )
            telemetry = Telemetry()
            engine = SaxPacEngine._from_parts(
                classifier,
                EngineConfig(enforce_cache=enforce),
                BinaryRangeEncoder(),
                telemetry,
                grouping=grouping,
                software=MultiGroupEngine(
                    classifier, grouping.groups, recorder=telemetry
                ),
                d_indices=grouping.ungrouped,
                stages=(),
            )
            engine.match_batch_indices(trace)
            probes = telemetry.counter("engine.d_probes")
            rows.append(
                [
                    "MRCC cache" if enforce else "always probe D",
                    probes,
                    probes * engine.report().tcam_entries,
                    telemetry.counter("engine.d_skipped"),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_cache_power",
        format_table(
            ["mode", "D probes", "row activations", "skipped"],
            rows,
            title=f"Ablation - MRCC power proxy ({len(trace)} packets, acl3)",
        ),
    )
    assert rows[1][1] <= rows[0][1]  # cache mode issues fewer D probes


def test_ablation_sweep_vs_matrix(benchmark, suite_small, save_result):
    """Output-sensitive sweep vs blockwise matrix order-independence
    check on the (mostly independent) benchmark classifiers."""
    import time

    from repro.analysis.order_independence import is_order_independent
    from repro.analysis.sweep import conflict_pairs

    def run():
        rows = []
        for name in ("acl1", "fw1", "cisco1"):
            classifier = suite_small[name]
            t0 = time.perf_counter()
            matrix_answer = is_order_independent(classifier)
            matrix_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            conflicts = conflict_pairs(classifier)
            sweep_s = time.perf_counter() - t0
            assert matrix_answer == (not conflicts)
            rows.append(
                [name, len(classifier.body), len(conflicts),
                 f"{matrix_s:.4f}", f"{sweep_s:.4f}"]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_sweep",
        format_table(
            ["name", "rules", "conflicts", "matrix s", "sweep s"],
            rows,
            title="Ablation - conflict detection: matrix vs sweep",
        ),
    )


def test_ablation_negative_encoding(benchmark, save_result):
    """Signed (deny-entry) encoding [29] vs binary [36] vs SRGE [3]:
    average and worst-case rows per random 16-bit range."""
    from repro.tcam.negative import negative_range_encode
    from repro.tcam.encoding import srge_expand

    rng = random.Random(41)

    def run():
        rows = []
        for width in (8, 16):
            max_value = (1 << width) - 1
            stats = {"binary": [], "srge": [], "signed": []}
            for _ in range(300):
                lo = rng.randint(0, max_value)
                hi = rng.randint(lo, max_value)
                iv = Interval(lo, hi)
                stats["binary"].append(len(binary_expand(iv, width)))
                stats["srge"].append(len(srge_expand(iv, width)))
                stats["signed"].append(len(negative_range_encode(iv, width)))
            for name, counts in stats.items():
                rows.append(
                    [width, name, f"{sum(counts) / len(counts):.2f}",
                     max(counts)]
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_negative",
        format_table(
            ["width", "encoding", "avg rows", "max rows"],
            rows,
            title="Ablation - range encodings incl. deny entries",
        ),
    )


def test_ablation_group_probe_structure(benchmark, suite_small, save_result):
    """Segment-tree two-field probe vs linear scan probe on the largest
    two-field group of acl1."""
    import time

    classifier = suite_small["acl1"]
    grouping = l_mgr(classifier, l=2)
    group = max(grouping.groups, key=lambda g: g.size)
    trace = generate_trace(classifier, 2000, seed=23)
    tree_index = build_group_index(classifier, group, "segment")
    linear_index = LinearGroupIndex(classifier, group)

    def probe_all(index):
        for header in trace:
            index.probe(header)

    def run():
        t0 = time.perf_counter()
        probe_all(tree_index)
        tree_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        probe_all(linear_index)
        linear_s = time.perf_counter() - t0
        return tree_s, linear_s

    tree_s, linear_s = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_probe_structure",
        format_table(
            ["structure", "group size", "probes", "seconds"],
            [
                ["segment-tree", group.size, len(trace), f"{tree_s:.4f}"],
                ["linear scan", group.size, len(trace), f"{linear_s:.4f}"],
            ],
            title="Ablation - two-field probe structure",
        ),
    )
    # Both structures must agree, whatever the timing.
    for header in trace[:300]:
        assert tree_index.probe(header) == linear_index.probe(header)


def test_ablation_cascading(benchmark, suite_small, save_result):
    """Fractional cascading vs plain segment-tree two-field probes on the
    largest two-field group of fw1."""
    import time

    from repro.lookup.cascading import CascadingTwoFieldIndex
    from repro.lookup.two_field import TwoFieldIndex

    classifier = suite_small["fw1"]
    grouping = l_mgr(classifier, l=2)
    group = max(
        (g for g in grouping.groups if len(g.fields) == 2),
        key=lambda g: g.size,
        default=None,
    )
    if group is None:
        pytest.skip("no two-field group found")
    trace = generate_trace(classifier, 3000, seed=29)
    a, b = group.fields
    triples = [
        (classifier.rules[r].intervals[a], classifier.rules[r].intervals[b], r)
        for r in group.rule_indices
    ]
    plain = TwoFieldIndex(triples)
    cascaded = CascadingTwoFieldIndex(triples)

    def run():
        t0 = time.perf_counter()
        for header in trace:
            plain.lookup(header[a], header[b])
        plain_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for header in trace:
            cascaded.lookup(header[a], header[b])
        cascaded_s = time.perf_counter() - t0
        return plain_s, cascaded_s

    plain_s, cascaded_s = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_cascading",
        format_table(
            ["structure", "group size", "probes", "seconds"],
            [
                ["segment-tree (log^2)", group.size, len(trace),
                 f"{plain_s:.4f}"],
                ["cascading (log)", group.size, len(trace),
                 f"{cascaded_s:.4f}"],
            ],
            title="Ablation - two-field probe: plain vs fractional cascading",
        ),
    )
    for header in trace[:500]:
        assert plain.lookup(header[a], header[b]) == cascaded.lookup(
            header[a], header[b]
        )


def test_ablation_fp_budget(benchmark, suite_small, save_result):
    """Effect of the line-rate budget C on software placement under a
    tight group budget (beta = 2, one lookup field per group — the regime
    where Example 10's shadow insertions actually trigger).  The effect is
    modest by design: the soundness condition for shadow attachment (the
    hosts must cover the new rule's projection) is conservative."""
    rules = list(suite_small["fw1"].body)[:400]

    def run():
        rows = []
        for budget in (0, 1, 2, 4):
            dyn = DynamicSaxPac(
                classbench_schema(),
                max_groups=2,
                max_group_fields=1,
                fp_budget=budget,
            )
            for rule in rules:
                dyn.insert(rule)
            rows.append(
                [budget, dyn.software_size, dyn.d_size,
                 f"{dyn.software_size / len(rules):.3f}"]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_fp_budget",
        format_table(
            ["C", "software rules", "D rules", "software fraction"],
            rows,
            title="Ablation - false-positive budget C (beta=2, l=1, fw1)",
        ),
    )
    # More budget never decreases software placement.
    fractions = [int(r[1]) for r in rows]
    assert fractions == sorted(fractions)
