"""Observability overhead: is the NULL_RECORDER path really free?

Standalone script (not a pytest-benchmark module) so CI can gate on it:

    python benchmarks/bench_obs_overhead.py --quick \
        --baseline BENCH_runtime.json

Replays the same batched workload as ``bench_runtime.py`` (the trace as
one contiguous uint32 block, the wire form, through
``match_batch_indices`` in ``--batch-size`` slices) through three
recorder configurations:

* **disabled** — the default ``NULL_RECORDER`` (what production uses when
  observability is off); this is the path that must stay zero-cost;
* **telemetry** — counters + latency histograms only;
* **obs** — full stack: counters, histograms, span tracing and heat
  profiling (the ``--obs`` CLI configuration).

The gate: the disabled path's throughput must be within ``--tolerance``
(default 5%) of the ``batched`` number in a baseline
``BENCH_runtime.json`` measured on the same machine with the same seed —
i.e. wiring observability hooks into the engines must not tax users who
never turn them on.  Exit status is non-zero when the gate fails.

Each configuration is measured ``--repeats`` times and the best run is
kept (throughput noise is one-sided: interference only ever slows you
down).  The full-obs run also exports its Chrome trace and heat report
(``--trace-out`` / ``--heat-out``) so CI can archive them as artifacts.

A final pass drives the same workload through a traced loopback
:class:`~repro.net.NetServer` and records the **per-stage waterfall
breakdown** (decode / queue-wait / coalesce-wait / lookup / encode /
write) as *shares of total request time* — ratios, not absolute
seconds, so the numbers are comparable across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

if __package__ in (None, ""):  # script invocation: put src/ on the path
    _SRC = os.path.join(os.path.dirname(__file__), "..", "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import numpy as np

from repro.obs import Observability
from repro.runtime.batch import iter_batches
from repro.runtime.telemetry import Telemetry
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.generator import STYLES, generate_classifier
from repro.workloads.traces import generate_trace


def _replay(engine, block: np.ndarray, batch_size: int) -> float:
    """One batched replay of a wire-form block; returns packets/sec."""
    start = time.perf_counter()
    for batch in iter_batches(block, batch_size):
        engine.match_batch_indices(batch)
    seconds = time.perf_counter() - start
    return len(block) / seconds if seconds else float("inf")


def _measure(engine, block, batch_size: int, repeats: int) -> dict:
    rates = [_replay(engine, block, batch_size) for _ in range(repeats)]
    return {
        "packets": len(block),
        "repeats": repeats,
        "packets_per_second": round(max(rates), 1),
        "packets_per_second_all": [round(r, 1) for r in rates],
    }


def _overhead(base: float, rate: float) -> float:
    """Fractional throughput loss of ``rate`` relative to ``base``."""
    if base <= 0:
        return 0.0
    return max(0.0, 1.0 - rate / base)


def _wire_stage_breakdown(classifier, trace, request_size: int = 16,
                          window: int = 32) -> dict:
    """Drive a traced loopback NetServer and return each waterfall
    stage's share of total request time (ratio-based)."""
    from repro.net import NetClient, NetConfig, serve_background
    from repro.obs import Observability, Tracer
    from repro.runtime.service import RuntimeService

    obs = Observability.create(tracing=True, heat=False)
    service = RuntimeService(classifier, recorder=obs.recorder)
    handle = serve_background(service, NetConfig(coalesce_wait_ms=0.2))
    blocks = [
        trace[i : i + request_size]
        for i in range(0, len(trace) - request_size + 1, request_size)
    ]
    try:
        with NetClient(port=handle.port, retries=4, tracer=Tracer()) \
                as client:
            client.match_many(blocks, window=window)
        stats = handle.server.stages.stage_stats()
    finally:
        handle.stop()
    total = sum(entry["sum_s"] for entry in stats.values()) or 1.0
    return {
        "requests": len(blocks),
        "request_size": request_size,
        "window": window,
        "stages": {
            name: {
                "count": entry["count"],
                "share_of_total": round(entry["sum_s"] / total, 4),
                "mean_us": round(
                    entry["sum_s"] / entry["count"] * 1e6, 2
                )
                if entry["count"]
                else 0.0,
            }
            for name, entry in stats.items()
        },
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="SAX-PAC observability overhead benchmark"
    )
    parser.add_argument("--style", choices=sorted(STYLES), default="acl")
    parser.add_argument("--rules", type=int, default=10000)
    parser.add_argument("--trace", type=int, default=20000)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--repeats", type=int, default=3,
                        help="replays per configuration; best run kept")
    parser.add_argument("--seed", type=int, default=2014,
                        help="workload RNG seed (match the baseline's)")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration for CI")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="BENCH_runtime.json to gate the disabled "
                             "path against (its batched pkt/s)")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="max fractional regression of the disabled "
                             "path vs the baseline (default 0.05)")
    parser.add_argument("--heat-sample", type=int, default=1)
    parser.add_argument("--trace-out", default="BENCH_obs_trace.json",
                        help="Chrome trace artifact from the full-obs run")
    parser.add_argument("--heat-out", default="BENCH_obs_heat.json",
                        help="heat report artifact from the full-obs run")
    parser.add_argument("--out", default="BENCH_obs_overhead.json")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.rules = min(args.rules, 600)
        args.trace = min(args.trace, 3000)
    classifier = generate_classifier(args.style, args.rules, args.seed)
    trace = generate_trace(classifier, args.trace, seed=args.seed + 1)

    # Build each engine fresh so recorder wiring happens at construction,
    # exactly as RuntimeService does it.
    disabled_engine = SaxPacEngine(classifier)
    telemetry_engine = SaxPacEngine(classifier, recorder=Telemetry())
    obs = Observability.create(
        tracing=True, heat=True, sample_period=args.heat_sample
    )
    obs_engine = SaxPacEngine(classifier, recorder=obs.recorder)

    # Warm every path once (JITs nothing, but faults pages / fills caches)
    # before timing.
    block = np.ascontiguousarray(np.asarray(trace, dtype=np.uint32))
    warm = block[: min(len(block), args.batch_size)]
    for engine in (disabled_engine, telemetry_engine, obs_engine):
        engine.match_batch_indices(warm)

    disabled = _measure(disabled_engine, block, args.batch_size,
                        args.repeats)
    telemetry = _measure(telemetry_engine, block, args.batch_size,
                         args.repeats)
    full = _measure(obs_engine, block, args.batch_size, args.repeats)

    obs.tracer.export_chrome(args.trace_out)
    obs.heat.to_json(args.heat_out)

    base_rate = disabled["packets_per_second"]
    result = {
        "benchmark": "obs-overhead",
        "config": {
            "style": args.style,
            "rules": len(classifier.body),
            "trace": len(trace),
            "batch_size": args.batch_size,
            "repeats": args.repeats,
            "seed": args.seed,
            "quick": args.quick,
            "tolerance": args.tolerance,
        },
        "disabled": disabled,
        "telemetry": dict(
            telemetry,
            overhead_vs_disabled=round(
                _overhead(base_rate, telemetry["packets_per_second"]), 4
            ),
        ),
        "obs": dict(
            full,
            overhead_vs_disabled=round(
                _overhead(base_rate, full["packets_per_second"]), 4
            ),
            spans=len(obs.tracer),
            spans_dropped=obs.tracer.dropped,
        ),
        "artifacts": {"trace": args.trace_out, "heat": args.heat_out},
        "wire_stages": _wire_stage_breakdown(classifier, trace),
    }

    failed = False
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        baseline_rate = baseline["batched"]["packets_per_second"]
        regression = _overhead(baseline_rate, base_rate)
        failed = regression > args.tolerance
        result["gate"] = {
            "baseline": args.baseline,
            "baseline_packets_per_second": baseline_rate,
            "disabled_packets_per_second": base_rate,
            "regression": round(regression, 4),
            "tolerance": args.tolerance,
            "passed": not failed,
        }

    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    print(f"rules={len(classifier.body)} trace={len(trace)} "
          f"batch={args.batch_size} best-of-{args.repeats}")
    print(f"  disabled : {base_rate:>12,.0f} pkt/s (NULL_RECORDER)")
    print(f"  telemetry: {telemetry['packets_per_second']:>12,.0f} pkt/s "
          f"({result['telemetry']['overhead_vs_disabled']:.1%} overhead)")
    print(f"  full obs : {full['packets_per_second']:>12,.0f} pkt/s "
          f"({result['obs']['overhead_vs_disabled']:.1%} overhead, "
          f"{len(obs.tracer)} spans, heat on)")
    stage_shares = result["wire_stages"]["stages"]
    breakdown = " ".join(
        f"{name}={entry['share_of_total']:.0%}"
        for name, entry in stage_shares.items()
        if entry["count"]
    )
    print(f"  wire     : stage shares {breakdown}")
    if args.baseline:
        gate = result["gate"]
        verdict = "OK" if gate["passed"] else "FAIL"
        print(f"  gate     : disabled vs baseline "
              f"{gate['baseline_packets_per_second']:,.0f} pkt/s -> "
              f"{gate['regression']:.1%} regression "
              f"(tolerance {args.tolerance:.0%}) [{verdict}]")
    print(f"wrote {args.out} (+ {args.trace_out}, {args.heat_out})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
