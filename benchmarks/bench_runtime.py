"""Serving-pipeline throughput: single vs batched vs the shard modes.

Standalone script (not a pytest-benchmark module) so CI can smoke it:

    python benchmarks/bench_runtime.py --quick

Builds a generated classifier, replays a rule-targeted trace through the
data paths of :mod:`repro.runtime` — single-packet, batched, and the
two shard modes (``thread`` / ``shm``) — verifies the
fast paths against the linear-scan ground truth on a sample, and writes
``BENCH_runtime.json`` with packets/sec for each path plus the headline
speedups.  The shm rows also sweep worker counts (1/2/4, capped by
``--shards``) into a scaling curve.

Batched and sharded rows are fed the *wire form* of the trace — one
contiguous uint32 ndarray, exactly what the net decoder hands the
service — so the numbers include no tuple-boxing overhead that real
serving would not pay.  The single-packet baseline keeps tuple headers
(that is its calling convention) and is measured on a subsample;
per-packet cost is what's compared, so the subsample does not bias the
ratio.

``--gate-shm-ratio R`` turns the run into a CI regression gate: it fails
(exit 1) unless shm throughput >= R x plain batched.  Scaling past
batched requires real parallelism, so the gate auto-skips on hosts with
fewer than 2 CPUs (recorded in the JSON as ``cpu_count``) — a 1-core
container cannot exceed the single-core compute bound no matter how good
the transport is.

``--seed`` controls classifier, trace and sampling RNGs; identical seeds
give identical workloads run-to-run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Sequence

if __package__ in (None, ""):  # script invocation: put src/ on the path
    _SRC = os.path.join(os.path.dirname(__file__), "..", "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import numpy as np

from repro.runtime.batch import iter_batches
from repro.runtime.shard import SHARD_MODES, ShardedRuntime
from repro.saxpac.engine import SaxPacEngine
from repro.workloads.generator import STYLES, generate_classifier
from repro.workloads.traces import generate_trace


def _measure_single(engine, trace: Sequence) -> dict:
    match = engine.match
    start = time.perf_counter()
    for header in trace:
        match(header)
    seconds = time.perf_counter() - start
    return _rates(len(trace), seconds)


def _measure_batched(engine, block: np.ndarray, batch_size: int) -> dict:
    start = time.perf_counter()
    for batch in iter_batches(block, batch_size):
        engine.match_batch_indices(batch)
    seconds = time.perf_counter() - start
    result = _rates(len(block), seconds)
    result["batch_size"] = batch_size
    return result


def _make_sharded(engine, shards: int, mode: str) -> ShardedRuntime:
    if mode == "shm":
        return ShardedRuntime(
            classifier=engine.classifier,
            config=engine.config,
            num_shards=shards,
            mode=mode,
        )
    return ShardedRuntime(engine=engine, num_shards=shards)


def _measure_sharded(
    engine, block: np.ndarray, batch_size: int, shards: int, mode: str
) -> dict:
    with _make_sharded(engine, shards, mode) as runtime:
        # One warm-up batch keeps pool spin-up out of the timing.
        runtime.match_indices(block[:batch_size])
        start = time.perf_counter()
        for batch in iter_batches(block, batch_size):
            runtime.match_indices(batch)
        seconds = time.perf_counter() - start
    result = _rates(len(block), seconds)
    result.update(batch_size=batch_size, shards=shards, mode=mode)
    return result


def _rates(packets: int, seconds: float) -> dict:
    return {
        "packets": packets,
        "seconds": round(seconds, 6),
        "packets_per_second": round(packets / seconds, 1)
        if seconds
        else float("inf"),
    }


def _verify_equivalence(engine, classifier, trace, sample: int) -> int:
    """Cross-check the batched path against the linear-scan reference on
    a trace sample; returns the number of headers checked."""
    sub = list(trace[:sample])
    batched = engine.match_batch(sub)
    expected = classifier.match_batch(sub)
    for header, got, want in zip(sub, batched, expected):
        if got.index != want.index:
            raise AssertionError(
                f"batched mismatch on {header}: got rule {got.index}, "
                f"expected {want.index}"
            )
    return len(sub)


def _verify_shm(engine, classifier, block: np.ndarray, sample: int) -> int:
    """Byte-identical check of the shm ring path: indices served through
    shared-memory workers must equal ``Classifier.match_batch``."""
    sub = block[:sample]
    expected = [r.index for r in classifier.match_batch(sub)]
    with _make_sharded(engine, 2, "shm") as runtime:
        got = list(runtime.match_indices(sub))
    if got != expected:
        bad = next(i for i, (g, w) in enumerate(zip(got, expected)) if g != w)
        raise AssertionError(
            f"shm mismatch on packet {bad}: got rule {got[bad]}, "
            f"expected {expected[bad]}"
        )
    return len(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="SAX-PAC runtime throughput benchmark"
    )
    parser.add_argument("--style", choices=sorted(STYLES), default="acl")
    parser.add_argument("--rules", type=int, default=10000)
    parser.add_argument("--trace", type=int, default=20000)
    parser.add_argument("--single-sample", type=int, default=2000,
                        help="packets for the (slow) single-packet "
                             "baseline; per-packet cost is extrapolated")
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--shard-mode",
                        choices=SHARD_MODES,
                        default="shm",
                        help="mode reported in the top-level 'sharded' "
                             "row (both are measured)")
    parser.add_argument("--seed", type=int, default=2014,
                        help="workload RNG seed (reproducible numbers)")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration for CI")
    parser.add_argument("--gate-shm-ratio", type=float, default=None,
                        metavar="R",
                        help="fail unless shm >= R x batched throughput "
                             "(auto-skipped on hosts with < 2 CPUs)")
    parser.add_argument("--out", default="BENCH_runtime.json")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.rules = min(args.rules, 600)
        args.trace = min(args.trace, 3000)
        args.single_sample = min(args.single_sample, 600)
        args.shards = min(args.shards, 2)
    cpu_count = os.cpu_count() or 1
    classifier = generate_classifier(args.style, args.rules, args.seed)
    build_start = time.perf_counter()
    engine = SaxPacEngine(classifier)
    build_seconds = time.perf_counter() - build_start
    report = engine.report()
    trace = generate_trace(classifier, args.trace, seed=args.seed + 1)
    block = np.ascontiguousarray(np.asarray(trace, dtype=np.uint32))
    checked = _verify_equivalence(
        engine, classifier, trace, min(500, len(trace))
    )
    checked_shm = _verify_shm(
        engine, classifier, block, min(500, len(block))
    )

    single = _measure_single(engine, trace[: args.single_sample])
    batched = _measure_batched(engine, block, args.batch_size)
    modes = {
        mode: _measure_sharded(
            engine, block, args.batch_size, args.shards, mode
        )
        for mode in SHARD_MODES
    }
    scaling = [
        _measure_sharded(engine, block, args.batch_size, workers, "shm")
        for workers in (1, 2, 4)
        if workers <= args.shards
    ]
    sharded = modes[args.shard_mode]
    single_pps = single["packets_per_second"]
    batched_pps = batched["packets_per_second"]
    shm_pps = modes["shm"]["packets_per_second"]
    result = {
        "benchmark": "runtime-throughput",
        "config": {
            "style": args.style,
            "rules": len(classifier.body),
            "trace": len(trace),
            "batch_size": args.batch_size,
            "shards": args.shards,
            "shard_mode": args.shard_mode,
            "seed": args.seed,
            "quick": args.quick,
        },
        "cpu_count": cpu_count,
        "engine": {
            "software_rules": report.software_rules,
            "tcam_rules": report.tcam_rules,
            "num_groups": report.num_groups,
            "tcam_entries": report.tcam_entries,
            "build_seconds": round(build_seconds, 3),
        },
        "equivalence_checked_packets": checked,
        "shm_equivalence_checked_packets": checked_shm,
        "single": single,
        "batched": batched,
        "sharded": sharded,
        "sharded_modes": modes,
        "shm_scaling": scaling,
        "speedup_batched_vs_single": round(batched_pps / single_pps, 2),
        "speedup_sharded_vs_single": round(
            sharded["packets_per_second"] / single_pps, 2
        ),
        "speedup_shm_vs_batched": round(shm_pps / batched_pps, 2),
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"rules={len(classifier.body)} trace={len(trace)} "
          f"cpus={cpu_count} (equivalence checked on {checked}, "
          f"shm on {checked_shm})")
    print(f"  single : {single_pps:>12,.0f} pkt/s "
          f"({single['packets']} pkts)")
    print(f"  batched: {batched_pps:>12,.0f} pkt/s "
          f"({result['speedup_batched_vs_single']:.1f}x single)")
    for mode in SHARD_MODES:
        row = modes[mode]
        print(f"  {mode:<7}: {row['packets_per_second']:>12,.0f} pkt/s "
              f"({row['packets_per_second'] / single_pps:.1f}x single, "
              f"{args.shards} shards)")
    for row in scaling:
        print(f"  shm x{row['shards']}: "
              f"{row['packets_per_second']:>10,.0f} pkt/s")
    print(f"wrote {args.out}")
    if args.gate_shm_ratio is not None:
        ratio = shm_pps / batched_pps
        if cpu_count < 2:
            print(f"shm gate SKIPPED: {cpu_count} CPU(s) — parallel "
                  f"scaling is unmeasurable on this host "
                  f"(shm/batched = {ratio:.2f})")
        elif ratio < args.gate_shm_ratio:
            print(f"shm gate FAILED: shm/batched = {ratio:.2f} < "
                  f"{args.gate_shm_ratio:.2f}")
            return 1
        else:
            print(f"shm gate ok: shm/batched = {ratio:.2f} >= "
                  f"{args.gate_shm_ratio:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
