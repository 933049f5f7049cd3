"""Lookup throughput of the classification engines (extra experiment).

The paper argues complexity, not absolute throughput; this bench measures
the *relative* shape on our substrate: the SAX-PAC software engine (few
group probes, each O(log N)) should scale far better than the naive linear
scan, and the hybrid engine should stay close to the pure software path
because the order-dependent part D holds only a few percent of the rules
(D is matched through per-field bit vectors, one binary search per field
and a few word ANDs per packet).

Besides the pytest-benchmark micro-benchmarks, this module doubles as a
standalone **per-backend ablation** (the same pattern as
``bench_build.py``), so CI can smoke and gate it:

    python benchmarks/bench_lookup_throughput.py --quick

For every (style, rule-count) cell it builds ``MultiGroupEngine`` over
the paper's l-MGR grouping of the order-independent part once per lookup
backend (``linear``, ``interval``, ``segment``, ``auto``), replays the
same trace through ``MultiGroupEngine.lookup_batch``, asserts all
backends return byte-identical decisions, and writes
``BENCH_lookup.json``: per-cell packets/sec (from the median of
``--repeats`` timed replays), the worst-over-best spread of those
repeats, backend mix, memory items and build cost.  Each repeat times
every backend once, in turns, so a slow stretch of the host falls on all
backends of a repeat alike rather than on one backend's whole series.
``--baseline BENCH_lookup.json`` gates CI on the *ratio* of each
backend's throughput to the same-run linear backend, like the
``BENCH_build.json`` normalized-cost gate.  Runner speed cancels out of
the ratio only where host load slows every backend alike: the
Python-bound structures feel a busy CPU more than numpy-bound
``linear`` does.
"""

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

if __package__ in (None, ""):  # script invocation: put src/ on the path
    _SRC = os.path.join(os.path.dirname(__file__), "..", "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import numpy as np
import pytest

from repro.analysis.mgr import independent_split
from repro.bench.harness import bench_rules, cached_suite
from repro.core.packet import headers_array
from repro.lookup.group_engine import MultiGroupEngine
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.generator import generate_classifier
from repro.workloads.traces import generate_trace

TRACE_LEN = 2000

#: Ablation order: linear first — it is every cell's ratio denominator.
ABLATION_BACKENDS = ("linear", "interval", "segment", "auto")


@pytest.fixture(scope="module")
def workload():
    suite = cached_suite(rules=min(bench_rules(), 2000))
    classifier = suite["acl1"]
    trace = generate_trace(classifier, TRACE_LEN, seed=31)
    return classifier, trace


def test_linear_scan_throughput(benchmark, workload):
    classifier, trace = workload

    def run():
        for header in trace:
            classifier.match(header)

    benchmark(run)


def test_saxpac_engine_throughput(benchmark, workload):
    classifier, trace = workload
    engine = SaxPacEngine(classifier)

    def run():
        for header in trace:
            engine.match(header)

    benchmark(run)
    # Sanity: the engine agrees with the reference on this trace.
    for header in trace[:200]:
        assert engine.match(header).index == classifier.match(header).index


def test_software_only_throughput(benchmark, workload):
    classifier, trace = workload
    engine = SaxPacEngine(classifier)

    def run():
        for header in trace:
            engine.software.lookup(header)

    benchmark(run)


def test_tuple_space_throughput(benchmark, workload):
    from repro.lookup.tuple_space import TupleSpaceClassifier

    classifier, trace = workload
    tss = TupleSpaceClassifier(classifier)

    def run():
        for header in trace:
            tss.match_index(header)

    benchmark(run)
    for header in trace[:200]:
        assert tss.match(header).index == classifier.match(header).index


def test_decision_tree_throughput(benchmark, workload):
    from repro.lookup.decision_tree import DecisionTreeClassifier

    classifier, trace = workload
    tree = DecisionTreeClassifier(classifier, binth=8)

    def run():
        for header in trace:
            tree.match_index(header)

    benchmark(run)
    for header in trace[:200]:
        assert tree.match(header).index == classifier.match(header).index


def test_memory_footprint(benchmark, workload, save_result):
    """Stored-item counts of each structure — the memory half of the
    space/time tradeoff the throughput numbers show one side of."""
    from repro.bench.harness import format_table
    from repro.lookup.decision_tree import DecisionTreeClassifier
    from repro.lookup.tuple_space import TupleSpaceClassifier
    from repro.tcam.encoding import BinaryRangeEncoder, rule_entry_count

    classifier, _trace = workload
    n = len(classifier.body)

    def run():
        # The paper's split: l-MGR groups over I in software, the rest
        # in a TCAM.
        split = independent_split(classifier)
        encoder = BinaryRangeEncoder()
        stored = split.covered + sum(
            rule_entry_count(classifier.rules[i], classifier.schema, encoder)
            for i in split.ungrouped
        )
        tree = DecisionTreeClassifier(classifier, binth=8)
        tss = TupleSpaceClassifier(classifier)
        return [
            ["linear scan", n, "1.00x"],
            [
                "SAX-PAC (sw rules + TCAM entries)",
                stored,
                f"{stored / n:.2f}x",
            ],
            [
                "decision tree (stored rule refs)",
                tree.stats.stored_rules,
                f"{tree.stats.replication_factor(n):.2f}x",
            ],
            [
                "tuple space (hash entries)",
                tss.num_entries,
                f"{tss.num_entries / n:.2f}x",
            ],
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "memory_footprint",
        format_table(
            ["structure", "stored items", "vs rules"],
            rows,
            title=f"Memory footprint on acl1 ({n} rules)",
        ),
    )


# ----------------------------------------------------------------------
# Standalone per-backend ablation (python benchmarks/bench_lookup_throughput.py)
# ----------------------------------------------------------------------
def _ablate_cell(
    style: str, rules: int, seed: int, trace_len: int, repeats: int
) -> Dict[str, object]:
    """One (style, rules) cell: every backend over the same trace, with
    a byte-identical decision check against the linear backend, then
    ``repeats`` rounds that time each backend once, in turns."""
    classifier = generate_classifier(style, rules, seed)
    trace = generate_trace(classifier, trace_len, seed=seed + 1)
    harr = headers_array(trace, classifier.schema)
    cell: Dict[str, object] = {
        "style": style,
        "rules": rules,
        "backends": {},
    }
    # The paper's l-MGR groups over I, not the engine's one-field iSets
    # (which every backend but linear would serve by the same interval
    # index), so each forced backend runs its own structure.
    groups = independent_split(classifier).groups
    engines = {}
    reference: Optional[np.ndarray] = None
    for backend in ABLATION_BACKENDS:
        software = MultiGroupEngine(classifier, groups, backend=backend)
        out = software.lookup_batch(harr)  # warmup + decisions
        if reference is None:
            reference = out
        elif not np.array_equal(out, reference):
            bad = int(np.nonzero(out != reference)[0][0])
            raise AssertionError(
                f"{style}/{rules}: backend {backend!r} diverges from "
                f"linear on header {trace[bad]}: "
                f"{int(out[bad])} != {int(reference[bad])}"
            )
        engines[backend] = software
    times: Dict[str, List[float]] = {name: [] for name in engines}
    for _ in range(repeats):
        for backend, software in engines.items():
            start = time.perf_counter()
            software.lookup_batch(harr)
            times[backend].append(time.perf_counter() - start)
    for backend, software in engines.items():
        runs = sorted(times[backend])
        median = runs[len(runs) // 2]
        mix: Dict[str, int] = {}
        for group in software.groups:
            mix[group.backend] = mix.get(group.backend, 0) + 1
        cell["backends"][backend] = {
            "seconds": round(median, 5),
            "packets_per_second": round(trace_len / median) if median else 0,
            # Worst repeat over best: how far one cell's repeats disagree.
            "spread": round(runs[-1] / runs[0], 3) if runs[0] else 0.0,
            "group_mix": mix,
            "memory_items": sum(
                g.memory_items() for g in software.groups
            ),
            "build_seconds": round(
                sum(g.build_seconds for g in software.groups), 5
            ),
        }
    return cell


def _cell_key(cell: Dict[str, object]) -> str:
    return f"{cell['style']}/{cell['rules']}"


def _ratios(cell: Dict[str, object]) -> Dict[str, float]:
    """Backend throughput relative to the same-run linear backend — the
    machine-independent number the CI gate compares."""
    backends = cell["backends"]
    base = backends.get("linear", {}).get("packets_per_second") or 0
    if not base:
        return {}
    return {
        name: stats["packets_per_second"] / base
        for name, stats in backends.items()
        if name != "linear"
    }


def _gate(
    result: Dict[str, object], baseline_path: str, regression: float
) -> List[str]:
    """Ratio-based regression gate: each backend's linear-relative
    throughput must not drop more than ``regression`` below the
    same-cell baseline ratio.  Cells are compared only when the baseline
    ran the same configuration."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures: List[str] = []
    same_config = all(
        baseline.get("config", {}).get(key) == result["config"][key]
        for key in ("styles", "sizes", "seed", "trace")
    )
    if not same_config:
        return failures
    base_cells = {
        _cell_key(cell): cell for cell in baseline.get("cells", [])
    }
    for cell in result["cells"]:
        base = base_cells.get(_cell_key(cell))
        if base is None:
            continue
        base_ratios = _ratios(base)
        for name, ratio in _ratios(cell).items():
            want = base_ratios.get(name)
            if want is None:
                continue
            if ratio < want * (1.0 - regression):
                failures.append(
                    f"{_cell_key(cell)}: backend {name} regressed: "
                    f"throughput ratio vs linear {want:.2f} -> "
                    f"{ratio:.2f} (> {regression:.0%} drop)"
                )
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="per-backend lookup throughput ablation"
    )
    parser.add_argument("--styles", nargs="*",
                        default=["acl", "fw", "ipc"])
    parser.add_argument("--sizes", type=int, nargs="*",
                        default=[2000, 10000],
                        help="classifier sizes (group-size sweep)")
    parser.add_argument("--trace", type=int, default=20000,
                        help="packets replayed per cell")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed rounds, each timing every backend "
                             "once (the median is reported, and the "
                             "worst-over-best spread)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration for CI")
    parser.add_argument("--baseline", default=None,
                        help="gate against this BENCH_lookup.json")
    parser.add_argument("--regression", type=float, default=0.25,
                        help="max tolerated drop of a backend's "
                             "linear-relative throughput ratio")
    parser.add_argument("--out", default="BENCH_lookup.json")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.sizes = [min(s, 2000) for s in args.sizes][:1]
        args.trace = min(args.trace, 4000)
    cells = [
        _ablate_cell(style, rules, args.seed, args.trace, args.repeats)
        for style in args.styles
        for rules in args.sizes
    ]
    result = {
        "benchmark": "lookup-backends",
        "config": {
            "styles": args.styles,
            "sizes": args.sizes,
            "trace": args.trace,
            "repeats": args.repeats,
            "seed": args.seed,
            "quick": args.quick,
        },
        "cells": cells,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    for cell in cells:
        print(f"{_cell_key(cell)}  (trace={args.trace}):")
        for name, stats in cell["backends"].items():
            mix = ",".join(
                f"{k}:{v}" for k, v in sorted(stats["group_mix"].items())
            )
            print(f"  {name:<9} {stats['packets_per_second']:>12,} pkt/s"
                  f"  spread={stats['spread']:.2f}x"
                  f"  mem={stats['memory_items']:>8,}  [{mix}]")
    print(f"wrote {args.out}")

    if args.baseline:
        failures = _gate(result, args.baseline, args.regression)
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"gate OK vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
