#!/usr/bin/env python
"""Hybrid deployment of a firewall classifier: software groups + TCAM D.

Firewall rule sets are the paper's hardest case: broad sources, port
ranges, deny tails — still ~90% order-independent.  This example builds
the full hybrid engine, prints the decomposition (Section 8's story),
exercises the power-saving cache mode (Section 4.3), and measures relative
lookup cost on a ClassBench-style trace.

Run:  python examples/hybrid_firewall.py
"""

import time

from repro import SaxPacEngine, generate_classifier
from repro.saxpac import ClassificationCache
from repro.workloads import generate_trace


def main():
    classifier = generate_classifier("fw", 1200, seed=42)
    trace = generate_trace(classifier, 4000, seed=43, hit_fraction=0.9)

    engine = SaxPacEngine(classifier)
    report = engine.report()
    print(f"firewall: {report.total_rules} rules")
    print(f"  software: {report.software_rules} rules "
          f"({report.software_fraction:.1%}) in {report.num_groups} groups")
    for i, fields in enumerate(report.group_fields, 1):
        names = [classifier.schema[f].name for f in fields]
        size = engine.grouping.groups[i - 1].size
        print(f"    group {i:>2}: {size:>5} rules on {names}")
    print(f"  TCAM (D): {report.tcam_rules} rules -> "
          f"{report.tcam_entries} entries "
          f"(all-TCAM would need {report.tcam_entries_full}; "
          f"saving {report.tcam_saving:.1%})")

    # Relative lookup cost on the trace.
    t0 = time.perf_counter()
    for header in trace:
        classifier.match(header)
    linear_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for header in trace:
        engine.match(header)
    engine_s = time.perf_counter() - t0
    print(f"\ntrace of {len(trace)} packets: linear scan {linear_s:.2f}s, "
          f"SAX-PAC engine {engine_s:.2f}s "
          f"({linear_s / engine_s:.1f}x faster)")

    # Power-saving cache: an I match preempts the TCAM lookup entirely.
    cache = ClassificationCache(classifier)
    for header in trace:
        cache.match(header)
    print(f"\nMRCC cache: {cache.cached_rules} rules cached, "
          f"hit rate {cache.stats.hit_rate:.1%} "
          f"({cache.stats.hits} TCAM lookups avoided)")

    # Semantics are identical to the reference classifier.
    for header in trace[:500]:
        assert engine.match(header).index == classifier.match(header).index
        assert cache.match(header).index == classifier.match(header).index
    print("verified: engine and cache agree with the linear scan.")


if __name__ == "__main__":
    main()
