"""Command-line interface: ``python -m repro <command>``.

Commands
--------

generate     write a synthetic classifier in ClassBench filter format
analyze      print the Section 7.1 profile of a classifier file
profile      compute the profile and save classifier+profile as JSON
classify     build the hybrid engine and classify a generated trace
runtime      replay a generated trace through the batched/sharded serving
             pipeline (repro.runtime) and print the telemetry report;
             --serve-metrics exposes /metrics, /healthz and /snapshot
             over HTTP, --obs/--trace-out/--heat-out add span tracing
             and heat profiling (repro.obs)
serve        serve classification over TCP with the repro.net wire
             protocol (adaptive request coalescing, graceful drain on
             SIGINT/SIGTERM; --serve-metrics exposes /metrics alongside;
             --obs adds request tracing + the flight recorder endpoint,
             --slo/--slo-spec arm burn-rate monitoring)
client       drive a running serve endpoint with a generated workload
             (pipelined requests, optional differential --verify;
             --trace-out originates trace contexts and exports the
             client-side spans as Chrome trace-event JSON)
cluster      replicated-serving drills over an in-process LocalCluster;
             ``cluster swap`` drives client load through a ReplicaSet
             while a zero-downtime rolling swap walks the replicas
             (quiesce -> insert updates -> resume, one at a time),
             then checks convergence and (optionally) verifies every
             answer against the linear reference
flightrec    fetch a serving endpoint's /flightrecorder dump and render
             the retained anomalous requests (or a saved dump file)
top          replay a trace with heat profiling and render the hottest
             rules, groups and pipeline stages (live on a tty); --watch
             polls a running serve endpoint's /snapshot instead and
             renders the wire + SLO burn panels live
experiments  regenerate a paper table/figure (table1|table2|table3|
             figure1|figure6)
convert      convert between ClassBench text and the JSON format

Input files ending in ``.json`` are treated as the JSON interchange format;
anything else is parsed as ClassBench filter text.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .analysis import group_statistics
from .core.classifier import Classifier
from .runtime.shard import SHARD_MODES
from .saxpac.config import ClassifierProfile, profile_classifier
from .saxpac.engine import EngineConfig, SaxPacEngine
from .saxpac.serialization import load_classifier, save_classifier
from .workloads.classbench import parse_classbench, write_classbench
from .workloads.generator import STYLES, generate_classifier
from .workloads.traces import generate_trace

__all__ = ["main", "build_parser"]


def _load(path: str) -> Tuple[Classifier, Optional[ClassifierProfile]]:
    if path.endswith(".json"):
        return load_classifier(path)
    return parse_classbench(path), None


def _save(classifier: Classifier, path: str, profile=None) -> None:
    if path.endswith(".json"):
        save_classifier(classifier, path, profile)
    else:
        write_classbench(classifier, path)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAX-PAC packet classification (SIGCOMM 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic classifier")
    gen.add_argument("--style", choices=sorted(STYLES), default="acl")
    gen.add_argument("--rules", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=2014)
    gen.add_argument("--forwarding", type=int, choices=(4, 6), default=None,
                     help="generate an IPv4/IPv6 forwarding table instead "
                          "of a 6-field classifier (JSON output only)")
    gen.add_argument("--out", required=True,
                     help=".txt for ClassBench format, .json for JSON")

    ana = sub.add_parser("analyze", help="print a classifier's profile")
    ana.add_argument("path")
    ana.add_argument("--betas", type=int, nargs="*", default=[])
    ana.add_argument("--redundancy", action="store_true",
                     help="also report provably-dead rules")
    ana.add_argument("--stats", action="store_true",
                     help="also print per-field structural statistics")

    prof = sub.add_parser("profile", help="save classifier + profile JSON")
    prof.add_argument("path")
    prof.add_argument("--out", required=True)
    prof.add_argument("--betas", type=int, nargs="*", default=[])

    cls = sub.add_parser("classify", help="run a trace through the engine")
    cls.add_argument("path")
    cls.add_argument("--trace", type=int, default=10000)
    cls.add_argument("--seed", type=int, default=1)
    cls.add_argument("--max-groups", type=int, default=None)
    cls.add_argument("--cache", action="store_true",
                     help="enforce the MRCC cache property")

    run = sub.add_parser(
        "runtime",
        help="replay a trace through the batched/sharded serving pipeline",
    )
    run.add_argument("path")
    run.add_argument("--trace", type=int, default=20000,
                     help="number of generated packets to replay")
    run.add_argument("--seed", type=int, default=1,
                     help="trace/update RNG seed (reproducible runs)")
    run.add_argument("--batch-size", type=int, default=1024)
    run.add_argument("--shards", type=int, default=1,
                     help="worker count (1 = unsharded)")
    run.add_argument("--shard-mode", choices=SHARD_MODES,
                     default="thread")
    run.add_argument("--max-groups", type=int, default=None)
    run.add_argument("--cache", action="store_true",
                     help="enforce the MRCC cache property")
    run.add_argument("--updates", type=int, default=0,
                     help="hot-insert this many rules mid-replay "
                          "(exercises the RCU swap path)")
    run.add_argument("--deadline-ms", type=float, default=None,
                     help="per-batch deadline for sharded classification; "
                          "a chunk missing it falls back to the linear "
                          "scan and the worker pool is respawned")
    run.add_argument("--chaos", default=None, metavar="PLAN.json",
                     help="arm fault injection from a chaos plan file "
                          "(see repro.chaos; examples/faultplan.json)")
    run.add_argument("--verify", action="store_true",
                     help="differentially check every batch against the "
                          "linear reference (exit 1 on any mismatch)")
    run.add_argument("--expect-health", default=None,
                     choices=("healthy", "degraded", "linear-fallback"),
                     help="assert the final health state (exit 1 on "
                          "mismatch; for chaos smoke tests)")
    run.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of text")
    run.add_argument("--serve-metrics", type=int, default=None,
                     metavar="PORT", nargs="?", const=0,
                     help="serve /metrics, /healthz and /snapshot over "
                          "HTTP during the replay (0 or no value = "
                          "ephemeral port)")
    run.add_argument("--linger", type=float, default=0.0,
                     help="keep the metrics endpoint up this many "
                          "seconds after the replay finishes")
    run.add_argument("--obs", action="store_true",
                     help="enable span tracing + heat profiling "
                          "(implied by --trace-out / --heat-out)")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write spans as Chrome trace-event JSON "
                          "(load in chrome://tracing or Perfetto)")
    run.add_argument("--heat-out", default=None, metavar="FILE",
                     help="write the per-rule/per-group heat report JSON")
    run.add_argument("--heat-sample", type=int, default=1,
                     help="heat sampling period (record every k-th "
                          "packet)")
    run.add_argument("--span-capacity", type=int, default=4096,
                     help="span ring-buffer capacity")

    srv = sub.add_parser(
        "serve",
        help="serve classification over TCP (repro.net wire protocol)",
    )
    srv.add_argument("path")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="TCP port (0 = ephemeral; the bound port is "
                          "printed on startup)")
    srv.add_argument("--shards", type=int, default=1,
                     help="worker count (1 = unsharded)")
    srv.add_argument("--shard-mode", choices=SHARD_MODES,
                     default="thread")
    srv.add_argument("--max-groups", type=int, default=None)
    srv.add_argument("--cache", action="store_true",
                     help="enforce the MRCC cache property")
    srv.add_argument("--max-batch", type=int, default=8192,
                     help="packet cap of one coalesced lookup")
    srv.add_argument("--coalesce-wait-ms", type=float, default=0.5,
                     help="how long a forming batch holds the door for "
                          "more requests (0 = never wait)")
    srv.add_argument("--max-inflight", type=int, default=32,
                     help="outstanding requests per connection before "
                          "the server stops reading the socket")
    srv.add_argument("--shed-watermark", type=int, default=64,
                     help="runtime in-flight batch cap; past it requests "
                          "get a retryable SHED error")
    srv.add_argument("--deadline-ms", type=float, default=None,
                     help="per-batch deadline for sharded classification")
    srv.add_argument("--chaos", default=None, metavar="PLAN.json",
                     help="arm fault injection (site net.conn covers "
                          "the wire layer; see examples/faultplan.json)")
    srv.add_argument("--serve-metrics", type=int, default=None,
                     metavar="PORT", nargs="?", const=0,
                     help="also expose /metrics, /healthz, /snapshot and "
                          "/flightrecorder over HTTP")
    srv.add_argument("--max-seconds", type=float, default=None,
                     help="drain and exit after this long (default: "
                          "serve until SIGINT/SIGTERM)")
    srv.add_argument("--obs", action="store_true",
                     help="trace requests end to end: server spans join "
                          "wire trace contexts and land in the flight "
                          "recorder (implied by --trace-out)")
    srv.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write server spans as Chrome trace-event JSON "
                          "at drain")
    srv.add_argument("--slo", action="store_true",
                     help="arm the default SLO specs: burn-rate gauges "
                          "on /metrics, fast burn degrades /healthz")
    srv.add_argument("--slo-spec", default=None, metavar="FILE",
                     help="arm SLO monitoring from a JSON spec file "
                          "instead of the defaults")

    cli = sub.add_parser(
        "client",
        help="drive a serve endpoint with a generated workload",
    )
    cli.add_argument("path",
                     help="the classifier the server was started with "
                          "(trace generation and the --verify oracle)")
    cli.add_argument("--host", default="127.0.0.1")
    cli.add_argument("--port", type=int, required=True)
    cli.add_argument("--packets", type=int, default=20000,
                     help="number of generated packets to send")
    cli.add_argument("--request-size", type=int, default=16,
                     help="packets per request frame")
    cli.add_argument("--window", type=int, default=16,
                     help="pipelining depth (1 = strict request/response)")
    cli.add_argument("--seed", type=int, default=1)
    cli.add_argument("--timeout-s", type=float, default=10.0,
                     help="per-read socket timeout")
    cli.add_argument("--retries", type=int, default=4,
                     help="reconnect-and-resend budget on connection "
                          "loss or corrupt frames")
    cli.add_argument("--wait-s", type=float, default=10.0,
                     help="wait up to this long for the server to accept")
    cli.add_argument("--verify", action="store_true",
                     help="differentially check every answer against "
                          "the local linear reference (exit 1 on any "
                          "mismatch)")
    cli.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of text")
    cli.add_argument("--out", default=None, metavar="REPORT.json",
                     help="also write the JSON report to this file")
    cli.add_argument("--trace-out", default=None, metavar="FILE",
                     help="originate trace contexts (negotiated; no-op "
                          "against an untraced server) and write the "
                          "client spans as Chrome trace-event JSON")

    clu = sub.add_parser(
        "cluster",
        help="replicated-serving drills over an in-process cluster",
    )
    clu_sub = clu.add_subparsers(dest="cluster_command", required=True)
    cswap = clu_sub.add_parser(
        "swap",
        help="rolling swap under load: quiesce/update/resume each "
             "replica while a ReplicaSet keeps serving",
    )
    cswap.add_argument("path",
                       help="classifier file to replicate and serve")
    cswap.add_argument("--replicas", type=int, default=3)
    cswap.add_argument("--packets", type=int, default=50000,
                       help="generated packets to push through the set")
    cswap.add_argument("--request-size", type=int, default=16,
                       help="packets per request frame")
    cswap.add_argument("--window", type=int, default=8,
                       help="pipelining depth per replica")
    cswap.add_argument("--updates", type=int, default=4,
                       help="decision-identical inserts per rolling "
                            "swap (clones of existing rules: the "
                            "generation moves, the answers do not)")
    cswap.add_argument("--policy",
                       choices=("rendezvous", "least_inflight"),
                       default="rendezvous")
    cswap.add_argument("--seed", type=int, default=1)
    cswap.add_argument("--verify", action="store_true",
                       help="differentially check every answer against "
                            "the local linear reference (exit 1 on any "
                            "mismatch)")
    cswap.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    cswap.add_argument("--out", default=None, metavar="REPORT.json",
                       help="also write the JSON report to this file")

    frec = sub.add_parser(
        "flightrec",
        help="render a serving endpoint's flight-recorder dump",
    )
    frec.add_argument("source",
                      help="metrics endpoint base URL (e.g. "
                           "http://127.0.0.1:9109) or a saved dump "
                           "JSON file")
    frec.add_argument("--limit", type=int, default=20,
                      help="entries to render per ring")
    frec.add_argument("--json", action="store_true",
                      help="print the raw dump JSON")

    top = sub.add_parser(
        "top",
        help="replay a trace and render the hottest rules/groups/stages",
    )
    top.add_argument("path", nargs="?", default=None)
    top.add_argument("--watch", default=None, metavar="URL",
                     help="poll a running serve endpoint's /snapshot "
                          "instead of replaying locally; renders the "
                          "wire + SLO burn panels live")
    top.add_argument("--interval", type=float, default=1.0,
                     help="--watch poll interval in seconds")
    top.add_argument("--watch-count", type=int, default=None,
                     help="stop --watch after this many polls "
                          "(default: until ctrl-c)")
    top.add_argument("--trace", type=int, default=20000,
                     help="number of generated packets to replay")
    top.add_argument("--seed", type=int, default=1)
    top.add_argument("--batch-size", type=int, default=1024)
    top.add_argument("--shards", type=int, default=1)
    top.add_argument("--shard-mode", choices=SHARD_MODES,
                     default="thread")
    top.add_argument("--max-groups", type=int, default=None)
    top.add_argument("--cache", action="store_true",
                     help="enforce the MRCC cache property")
    top.add_argument("--top", type=int, default=10, dest="k",
                     help="rows per section")
    top.add_argument("--heat-sample", type=int, default=1,
                     help="heat sampling period (record every k-th "
                          "packet)")
    top.add_argument("--refresh-batches", type=int, default=8,
                     help="re-render the live table every N batches "
                          "(tty only)")
    top.add_argument("--live", action="store_true",
                     help="force live re-rendering even off a tty")
    top.add_argument("--heat-out", default=None, metavar="FILE",
                     help="write the heat report JSON (the schema "
                          "ClassificationCache tuning consumes)")
    top.add_argument("--json", action="store_true",
                     help="emit the heat report as JSON instead of the "
                          "table")

    exp = sub.add_parser("experiments", help="regenerate a table/figure")
    exp.add_argument(
        "which",
        choices=["table1", "table2", "table3", "figure1", "figure6"],
    )
    exp.add_argument("--rules", type=int, default=None,
                     help="ClassBench-style classifier size")

    conv = sub.add_parser("convert", help="convert between formats")
    conv.add_argument("src")
    conv.add_argument("dst")

    flows = sub.add_parser(
        "export-flows", help="render a classifier as OpenFlow entries"
    )
    flows.add_argument("path")
    flows.add_argument("--out", default=None,
                       help="output file (default: stdout)")

    rep = sub.add_parser(
        "report",
        help="collate benchmark outputs under results/ into one REPORT.md",
    )
    rep.add_argument("--results", default="results",
                     help="directory holding the *.txt benchmark outputs")
    rep.add_argument("--out", default=None,
                     help="output path (default: <results>/REPORT.md)")
    return parser


def _cmd_generate(args) -> int:
    if args.forwarding is not None:
        from .workloads.forwarding import generate_forwarding_table

        classifier = generate_forwarding_table(
            args.rules, args.seed, version=args.forwarding
        )
        if not args.out.endswith(".json"):
            print("forwarding tables are single-field; use a .json output",
                  file=sys.stderr)
            return 2
        _save(classifier, args.out)
        print(f"wrote {len(classifier.body)} IPv{args.forwarding} prefixes "
              f"to {args.out}")
        return 0
    classifier = generate_classifier(args.style, args.rules, args.seed)
    _save(classifier, args.out)
    print(f"wrote {len(classifier.body)} {args.style} rules to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    classifier, stored = _load(args.path)
    profile = stored or profile_classifier(
        classifier, betas=tuple(args.betas)
    )
    independent = profile.max_order_independent
    print(f"{args.path}: {profile.num_rules} rules, "
          f"{classifier.schema.total_width} bits")
    print(f"  order-independent: {independent.size} "
          f"({profile.independent_fraction:.1%})")
    fsm = profile.fsm_on_independent
    if fsm is not None:
        names = [classifier.schema[f].name for f in fsm.kept_fields]
        print(f"  FSM fields: {names} ({fsm.lookup_width} bits, "
              f"{fsm.method})")
    print(f"  2-field groups needed: {profile.min_groups_two_fields}")
    for beta, assignment in sorted(profile.group_assignments.items()):
        stats = group_statistics(assignment)
        print(f"  beta={beta}: {stats.covered_rules} rules in "
              f"{stats.num_groups} groups, "
              f"{len(assignment.ungrouped)} spilled to D")
    if getattr(args, "redundancy", False):
        from .analysis.redundancy import remove_redundant

        _cleaned, removed = remove_redundant(classifier)
        print(f"  provably-dead rules: {len(removed)}")
    if getattr(args, "stats", False):
        from .analysis.statistics import classifier_statistics

        stats = classifier_statistics(classifier)
        print(f"  mean specificity: {stats.mean_specificity_bits:.1f} of "
              f"{stats.total_width} bits")
        for field in stats.fields:
            print(f"    {field.name:>10}: wildcard {field.wildcard_fraction:.0%}, "
                  f"exact {field.exact_fraction:.0%}, "
                  f"separates {field.separation_fraction:.0%} of pairs")
    return 0


def _cmd_profile(args) -> int:
    classifier, _ = _load(args.path)
    profile = profile_classifier(classifier, betas=tuple(args.betas))
    save_classifier(classifier, args.out, profile)
    print(f"wrote classifier + profile to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    classifier, _ = _load(args.path)
    config = EngineConfig(
        max_groups=args.max_groups, enforce_cache=args.cache,
    )
    engine = SaxPacEngine(classifier, config)
    report = engine.report()
    print(f"engine: {report.software_rules}/{report.total_rules} rules in "
          f"software ({report.num_groups} groups), "
          f"{report.tcam_entries} TCAM entries "
          f"(full TCAM: {report.tcam_entries_full})")
    trace = generate_trace(classifier, args.trace, seed=args.seed)
    import time

    t0 = time.perf_counter()
    engine.match_batch_indices(trace)
    elapsed = time.perf_counter() - t0
    rate = len(trace) / elapsed if elapsed else float("inf")
    print(f"classified {len(trace)} packets in {elapsed:.2f}s "
          f"({rate:,.0f} pkt/s)")
    stats = engine.software.stats
    print(f"  group probes: {stats.probes}, candidates: {stats.candidates}, "
          f"false positives: {stats.false_positives}")
    if args.cache:
        print(f"  D lookups skipped: {engine.d_lookups_skipped}")
    return 0


def _build_injector(args, quiet: bool = False):
    """Armed :class:`~repro.chaos.FaultInjector` from ``--chaos``, or
    ``None`` when the flag is off."""
    if getattr(args, "chaos", None) is None:
        return None
    from .chaos import SITES, FaultInjector, FaultPlan

    plan = FaultPlan.load(args.chaos)
    for site in plan.sites():
        if site not in SITES:
            print(f"warning: chaos plan names unknown site {site!r}",
                  file=sys.stderr)
    if not quiet:
        print(f"chaos: armed {len(plan)} fault spec(s) from "
              f"{args.chaos} (seed {plan.seed})")
    return FaultInjector(plan)


def _build_observability(args):
    """Recorder for the runtime commands, or ``None`` when every
    observability flag is off (the NULL_RECORDER fast path)."""
    tracing = args.obs or args.trace_out is not None
    heat = args.obs or args.heat_out is not None
    if not (tracing or heat):
        return None
    from .obs import Observability

    return Observability.create(
        tracing=tracing,
        heat=heat,
        span_capacity=getattr(args, "span_capacity", 4096),
        sample_period=args.heat_sample,
    )


def _cmd_runtime(args) -> int:
    import random as _random
    import time

    from .runtime.batch import iter_batches
    from .runtime.service import RuntimeConfig, RuntimeService

    classifier, _ = _load(args.path)
    config = RuntimeConfig(
        batch_size=args.batch_size,
        num_shards=args.shards,
        shard_mode=args.shard_mode,
        deadline_ms=args.deadline_ms,
        engine=EngineConfig(
            max_groups=args.max_groups, enforce_cache=args.cache,
        ),
    )
    injector = _build_injector(args, quiet=args.json)
    obs = _build_observability(args)
    trace = generate_trace(classifier, args.trace, seed=args.seed)
    recorder = obs.recorder if obs is not None else None
    mismatches = 0
    with RuntimeService(
        classifier, config, recorder=recorder, injector=injector
    ) as service:
        if args.serve_metrics is not None:
            server = service.serve_metrics(port=args.serve_metrics)
            if not args.json:
                print(f"metrics: {server.url}/metrics "
                      f"(also /healthz, /snapshot)")
        report = service.engine_report()
        if not args.json and report is not None:
            print(
                f"engine: {report.software_rules}/{report.total_rules} rules "
                f"in software ({report.num_groups} groups), "
                f"{report.tcam_entries} TCAM entries; "
                f"batch={config.batch_size} shards={config.num_shards} "
                f"({config.shard_mode})"
            )
            stage_text = " ".join(
                f"{name}={seconds:.3f}s" for name, seconds in report.build_stages
            )
            print(
                f"build: {report.build_seconds:.3f}s "
                f"({'incremental' if report.build_incremental else 'full'}) "
                f"{stage_text}"
            )
        elif not args.json:
            print("engine: no sane report (linear fallback or corrupted); "
                  "serving continues")
        batches = list(iter_batches(trace, config.batch_size))
        swap_at = len(batches) // 2 if args.updates else None
        rng = _random.Random(args.seed)
        start = time.perf_counter()
        for i, batch in enumerate(batches):
            if swap_at is not None and i == swap_at:
                # Hot-insert mid-replay: clone existing body rules (valid
                # for the schema, lowest priority) to exercise the swap.
                for _ in range(args.updates):
                    service.insert(rng.choice(classifier.body))
            results = service.match_batch(batch)
            if args.verify:
                from .runtime.batch import verify_against_linear

                # The serving snapshot, re-read per batch: under swap
                # quarantine the old (stale) rules are the right oracle.
                bad = verify_against_linear(
                    service.serving_classifier(), batch, results
                )
                if bad:
                    mismatches += len(bad)
                    print(f"VERIFY: batch {i}: {len(bad)} answers differ "
                          f"from the linear reference", file=sys.stderr)
        elapsed = time.perf_counter() - start
        rate = len(trace) / elapsed if elapsed else float("inf")
        snapshot = service.snapshot()
        final_health = service.health.state.label
        if args.json:
            import json as _json

            final = service.swap.engine
            build = (
                {
                    "seconds": final.build_seconds,
                    "incremental": final.build_incremental,
                    "stages": {n: s for n, s in final.build_stages},
                }
                if hasattr(final, "build_stages")
                else None
            )
            payload = {
                "packets": len(trace),
                "seconds": elapsed,
                "packets_per_second": rate,
                "generation": service.swap.generation,
                "degraded": service.swap.degraded,
                "health": final_health,
                "quarantined": service.swap.quarantined,
                "build": build,
                "telemetry": snapshot.as_dict(),
            }
            if args.verify:
                payload["verify_mismatches"] = mismatches
            if injector is not None:
                payload["chaos_injected"] = injector.summary()
            print(_json.dumps(payload, indent=2))
        else:
            print(f"replayed {len(trace)} packets in {elapsed:.2f}s "
                  f"({rate:,.0f} pkt/s)")
            if args.updates:
                print(f"  hot updates: {args.updates} inserts, engine "
                      f"generation {service.swap.generation}, "
                      f"degraded={service.swap.degraded}")
            print(f"  health: {final_health}"
                  + (" (quarantined swap)" if service.swap.quarantined
                     else ""))
            if injector is not None:
                injected = ", ".join(injector.summary()) or "none"
                print(f"  chaos injected: {injected}")
            if args.verify:
                print(f"  verify: {mismatches} mismatches vs the linear "
                      f"reference over {len(trace)} packets")
            from .runtime.telemetry import render_text

            print(render_text(snapshot))
        if obs is not None and args.trace_out:
            count = len(obs.tracer)
            obs.tracer.export_chrome(args.trace_out)
            if not args.json:
                print(f"wrote {count} spans to {args.trace_out} "
                      f"({obs.tracer.dropped} dropped)")
        if obs is not None and args.heat_out:
            obs.heat.to_json(args.heat_out)
            if not args.json:
                print(f"wrote heat report to {args.heat_out}")
        if args.serve_metrics is not None and args.linger > 0:
            if not args.json:
                print(f"serving metrics for {args.linger:.0f}s more "
                      f"(ctrl-c to stop)...")
            try:
                time.sleep(args.linger)
            except KeyboardInterrupt:
                pass
    if args.verify and mismatches:
        print(f"FAIL: {mismatches} wrong answers", file=sys.stderr)
        return 1
    if args.expect_health is not None and final_health != args.expect_health:
        print(f"FAIL: final health {final_health!r}, expected "
              f"{args.expect_health!r}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .net.server import NetConfig, NetServer
    from .runtime.service import RuntimeConfig, RuntimeService

    classifier, _ = _load(args.path)
    runtime_config = RuntimeConfig(
        num_shards=args.shards,
        shard_mode=args.shard_mode,
        deadline_ms=args.deadline_ms,
        shed_watermark=args.shed_watermark,
        engine=EngineConfig(
            max_groups=args.max_groups, enforce_cache=args.cache,
        ),
    )
    net_config = NetConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        coalesce_wait_ms=args.coalesce_wait_ms,
        max_inflight=args.max_inflight,
    )
    injector = _build_injector(args)
    obs = None
    if args.obs or args.trace_out is not None:
        from .obs import Observability

        obs = Observability.create(tracing=True, heat=False)

    async def _run(service: RuntimeService) -> bool:
        server = NetServer(service, net_config)
        await server.start()
        print(f"serving {args.path} on {args.host}:{server.port} "
              f"(shards={args.shards}, max-batch={args.max_batch}, "
              f"coalesce-wait={args.coalesce_wait_ms}ms)", flush=True)
        if obs is not None:
            print("obs: tracing wire requests end to end "
                  "(negotiated per connection)", flush=True)
        if service.slo is not None:
            names = ", ".join(s.name for s in service.slo.specs)
            print(f"slo: monitoring burn rates for {names}", flush=True)
        if args.serve_metrics is not None:
            metrics = service.serve_metrics(port=args.serve_metrics)
            print(f"metrics: {metrics.url}/metrics (also /healthz, "
                  f"/snapshot, /flightrecorder)", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-posix, or serving off the main thread (tests)
        if args.max_seconds is not None:
            loop.call_later(args.max_seconds, stop.set)
        await stop.wait()
        print("draining...", flush=True)
        return await server.drain()

    with RuntimeService(
        classifier,
        runtime_config,
        recorder=obs.recorder if obs is not None else None,
        injector=injector,
    ) as service:
        if args.slo or args.slo_spec is not None:
            from .obs.slo import SLOEngine, default_slos, load_slo_specs

            specs = (
                load_slo_specs(args.slo_spec)
                if args.slo_spec is not None
                else default_slos()
            )
            service.slo = SLOEngine(specs)
        try:
            clean = asyncio.run(_run(service))
        except KeyboardInterrupt:  # pragma: no cover - signal race
            clean = False
        if obs is not None and args.trace_out:
            count = len(obs.tracer)
            obs.tracer.export_chrome(args.trace_out)
            print(f"wrote {count} spans to {args.trace_out} "
                  f"({obs.tracer.dropped} dropped)")
        snapshot = service.snapshot()
        requests = snapshot.counter("net.requests")
        lookups = snapshot.counter("net.lookups")
        print(f"served {requests} requests "
              f"({snapshot.counter('net.request_packets')} packets) in "
              f"{lookups} coalesced lookups; "
              f"{snapshot.counter('net.protocol_errors')} protocol "
              f"errors, {snapshot.counter('net.shed')} shed")
        if injector is not None:
            injected = ", ".join(injector.summary()) or "none"
            print(f"chaos injected: {injected}")
        print(f"drain: {'clean' if clean else 'dirty'}")
    return 0 if clean else 1


def _cmd_client(args) -> int:
    import json as _json
    import time

    from .net.client import NetClient
    from .runtime.batch import linear_match_batch

    classifier, _ = _load(args.path)
    trace = generate_trace(classifier, args.packets, seed=args.seed)
    requests = [
        trace[start : start + args.request_size]
        for start in range(0, len(trace), args.request_size)
    ]
    tracer = None
    if args.trace_out is not None:
        from .obs import Tracer

        tracer = Tracer(capacity=max(4096, 2 * len(requests)))
    client = NetClient(
        host=args.host,
        port=args.port,
        timeout_s=args.timeout_s,
        retries=args.retries,
        tracer=tracer,
    )
    deadline = time.perf_counter() + args.wait_s
    while True:
        try:
            client.connect()
            break
        except OSError:
            if time.perf_counter() >= deadline:
                print(f"could not connect to {args.host}:{args.port} "
                      f"within {args.wait_s}s", file=sys.stderr)
                return 2
            time.sleep(0.1)
    with client:
        rtt = client.ping()
        start = time.perf_counter()
        answers = client.match_many(requests, window=args.window)
        elapsed = time.perf_counter() - start
    rate = len(trace) / elapsed if elapsed else float("inf")
    if tracer is not None:
        count = len(tracer)
        tracer.export_chrome(args.trace_out)
        if not args.json:
            traced = "traced" if client.peer_traces else \
                "untraced (server did not negotiate the extension)"
            print(f"wrote {count} client spans to {args.trace_out} "
                  f"({tracer.dropped} dropped); requests {traced}")
    mismatches = 0
    if args.verify:
        import numpy as np

        got = np.concatenate(answers)
        want = np.array(
            [r.index for r in linear_match_batch(classifier, trace)],
            dtype=got.dtype,
        )
        mismatches = int((got != want).sum())
    if args.json or args.out:
        payload = {
            "packets": len(trace),
            "requests": len(requests),
            "request_size": args.request_size,
            "window": args.window,
            "seconds": elapsed,
            "packets_per_second": rate,
            "ping_rtt_s": rtt,
            "client_stats": dict(client.stats),
            "peer_traces": client.peer_traces,
        }
        if args.verify:
            payload["verify_mismatches"] = mismatches
        if args.out:
            with open(args.out, "w") as handle:
                _json.dump(payload, handle, indent=2)
                handle.write("\n")
        if args.json:
            print(_json.dumps(payload, indent=2))
    if not args.json:
        print(f"sent {len(requests)} requests ({len(trace)} packets, "
              f"window {args.window}) in {elapsed:.2f}s "
              f"({rate:,.0f} pkt/s, ping {rtt * 1e3:.2f}ms)")
        print(f"  transport: {client.stats['reconnects']} reconnects, "
              f"{client.stats['retried_requests']} retried requests, "
              f"{client.stats['shed_retries']} shed retries")
        if args.verify:
            print(f"  verify: {mismatches} mismatches vs the linear "
                  f"reference over {len(trace)} packets")
    if args.verify and mismatches:
        print(f"FAIL: {mismatches} wrong answers", file=sys.stderr)
        return 1
    return 0


def _cmd_cluster(args) -> int:
    if args.cluster_command == "swap":
        return _cmd_cluster_swap(args)
    print(f"unknown cluster command {args.cluster_command!r}",
          file=sys.stderr)
    return 2


def _cmd_cluster_swap(args) -> int:
    import json as _json
    import threading
    import time

    from .net.cluster import LocalCluster, decision_identical_updates
    from .obs.heat import render_cluster_panel
    from .runtime.batch import linear_match_indices

    classifier, _ = _load(args.path)
    trace = generate_trace(classifier, args.packets, seed=args.seed)
    blocks = [
        trace[start : start + args.request_size]
        for start in range(0, len(trace), args.request_size)
    ]
    updates = decision_identical_updates(
        classifier, args.updates, seed=args.seed
    )
    probes: List[float] = []
    swap_report = {}
    start = time.perf_counter()
    with LocalCluster(classifier, replicas=args.replicas) as cluster:
        replica_set = cluster.replica_set(
            policy=args.policy, retries=4
        )

        # The swap walks the replicas while the main thread keeps the
        # set under load — that concurrency is the whole point.
        def run_swap() -> None:
            t0 = time.perf_counter()
            swap_report.update(cluster.rolling_swap(updates))
            swap_report["seconds"] = time.perf_counter() - t0

        swapper = threading.Thread(target=run_swap, daemon=True)
        swap_started = False
        answers: List[object] = []
        slice_size = max(1, len(blocks) // 20)
        for i in range(0, len(blocks), slice_size):
            if not swap_started and i >= len(blocks) // 4:
                swapper.start()
                swap_started = True
            # One window=1 probe per slice: an honest request latency
            # sample even while the swap quiesces replicas under us.
            t0 = time.perf_counter()
            probe = replica_set.match_many(
                [blocks[i]], keys=[i]
            )
            probes.append(time.perf_counter() - t0)
            answers.extend(probe)
            rest = blocks[i + 1 : i + slice_size]
            if rest:
                answers.extend(
                    replica_set.match_many(
                        rest,
                        window=args.window,
                        keys=list(range(i + 1, i + 1 + len(rest))),
                    )
                )
        elapsed = time.perf_counter() - start
        if not swap_started:
            swapper.start()  # tiny workloads: swap after the load
        swapper.join()
        # Server-side truth: every replica applied the same updates
        # deterministically, so the max is the cluster's target.
        target = max(cluster.generations().values())
        generations = replica_set.wait_converged(
            target=target, timeout_s=30.0
        )
        stats = dict(replica_set.stats)
        replica_state = {
            name: {
                "alive": replica.alive,
                "generation": replica.generation,
            }
            for name, replica in replica_set.replicas.items()
        }
        replica_set.close()
    mismatches = 0
    if args.verify:
        import numpy as np

        from .net.cluster import fold_catch_all

        # Decision-identical swaps keep every body winner's index but
        # slide the catch-all as clones append; fold it back before
        # comparing (see fold_catch_all).
        n_body = len(classifier.body)
        got = fold_catch_all(
            np.concatenate([np.asarray(a) for a in answers]), n_body
        )
        want = fold_catch_all(
            linear_match_indices(classifier, trace), n_body
        )
        mismatches = int((got != want).sum())
    probes.sort()
    p50 = probes[len(probes) // 2] if probes else 0.0
    p99 = probes[min(len(probes) - 1, int(len(probes) * 0.99))] \
        if probes else 0.0
    payload = {
        "replicas": args.replicas,
        "packets": len(trace),
        "requests": len(blocks),
        "policy": args.policy,
        "seconds": elapsed,
        "packets_per_second": len(trace) / elapsed if elapsed else 0.0,
        "updates": len(updates),
        "swap": swap_report,
        "generations": generations,
        "target_generation": target,
        "probe_p50_s": p50,
        "probe_p99_s": p99,
        "cluster_stats": stats,
    }
    if args.verify:
        payload["verify_mismatches"] = mismatches
    if args.out:
        with open(args.out, "w") as handle:
            _json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(_json.dumps(payload, indent=2))
    else:
        print(f"rolling swap over {args.replicas} replicas under load: "
              f"{len(trace)} packets in {elapsed:.2f}s "
              f"({payload['packets_per_second']:,.0f} pkt/s)")
        print(f"  swap: {len(updates)} updates x "
              f"{len(swap_report.get('swapped', []))} replicas in "
              f"{swap_report.get('seconds', 0.0):.2f}s "
              f"(dirty quiesces: {swap_report.get('dirty', [])})")
        print(f"  converged: all replicas at generation >= {target} "
              f"({generations})")
        print(f"  probe latency: p50 {p50 * 1e3:.2f}ms / "
              f"p99 {p99 * 1e3:.2f}ms")
        panel = render_cluster_panel(
            stats, replica_state, elapsed_s=elapsed
        )
        if panel:
            print(panel)
        if args.verify:
            print(f"  verify: {mismatches} mismatches vs the linear "
                  f"reference over {len(trace)} packets")
    if args.verify and mismatches:
        print(f"FAIL: {mismatches} wrong answers", file=sys.stderr)
        return 1
    return 0


def _fetch_json(url: str):
    import json as _json
    import urllib.request

    with urllib.request.urlopen(url, timeout=10.0) as response:
        return _json.loads(response.read().decode("utf-8"))


def _cmd_flightrec(args) -> int:
    import json as _json
    import os

    if os.path.exists(args.source):
        with open(args.source) as handle:
            dump = _json.load(handle)
    else:
        url = args.source.rstrip("/")
        try:
            dump = _fetch_json(f"{url}/flightrecorder")
        except OSError as exc:
            print(f"could not fetch {url}/flightrecorder: {exc}",
                  file=sys.stderr)
            return 2
    if args.json:
        print(_json.dumps(dump, indent=2))
        return 0
    threshold = dump.get("slow_threshold_s")
    threshold_text = (
        f"{threshold * 1e3:.2f}ms" if threshold is not None else "warming up"
    )
    retained = dump.get("retained", {})
    retained_text = ", ".join(
        f"{verdict}={count}" for verdict, count in sorted(retained.items())
    ) or "none"
    print(f"flight recorder: {dump.get('seen', 0):,} requests seen, "
          f"retained {retained_text}; slow threshold (p99.9) "
          f"{threshold_text}")
    for ring in ("anomalous", "normal"):
        entries = dump.get(ring, [])
        if not entries:
            continue
        shown = entries[: args.limit]
        print(f"  {ring} ({len(shown)} of {len(entries)} retained):")
        for entry in shown:
            stages = entry.get("stages_s") or {}
            stage_text = " ".join(
                f"{name}={seconds * 1e6:.0f}us"
                for name, seconds in stages.items()
            )
            trace_id = entry.get("trace_id", 0)
            trace_text = f"{trace_id:016x}" if trace_id else "-"
            print(f"    [{entry.get('verdict', '?'):>8}] "
                  f"req={entry.get('request_id')} trace={trace_text} "
                  f"total={entry.get('total_s', 0.0) * 1e3:.2f}ms "
                  f"spans={len(entry.get('spans') or [])}")
            if stage_text:
                print(f"      stages: {stage_text}")
            state = entry.get("state") or {}
            if state:
                state_text = " ".join(
                    f"{key}={value}" for key, value in sorted(state.items())
                )
                print(f"      state:  {state_text}")
            error = (entry.get("tags") or {}).get("error")
            if error:
                print(f"      error:  {error}")
    return 0


def _cmd_top_watch(args) -> int:
    import time

    from .obs.heat import render_net_panel, render_slo_panel

    url = args.watch.rstrip("/")
    live = args.live or sys.stdout.isatty()
    polls = 0
    previous = None  # (monotonic, net.requests) for the req/s delta
    while args.watch_count is None or polls < args.watch_count:
        try:
            payload = _fetch_json(f"{url}/snapshot")
        except OSError as exc:
            print(f"could not fetch {url}/snapshot: {exc}", file=sys.stderr)
            return 2
        now = time.monotonic()
        counters = (payload.get("telemetry") or {}).get("counters", {})
        gauges = payload.get("gauges", {})
        requests = counters.get("net.requests", 0)
        elapsed = None
        if previous is not None and now > previous[0]:
            # Rate over the poll window, rendered via a synthetic
            # counter delta (render_net_panel divides count by elapsed);
            # an idle window keeps the cumulative panel instead.
            delta = requests - previous[1]
            if delta > 0:
                counters = dict(counters, **{"net.requests": delta})
                elapsed = now - previous[0]
        previous = (now, requests)
        lines = [f"watching {url} (poll {polls + 1})"]
        net_panel = render_net_panel(counters, gauges, elapsed_s=elapsed)
        lines.append(net_panel or "  wire: no traffic yet")
        slo_panel = render_slo_panel(gauges)
        if slo_panel:
            lines.append(slo_panel)
        frame = "\n".join(lines)
        if live:
            sys.stdout.write("\x1b[H\x1b[J" + frame + "\n")
        else:
            print(frame)
        sys.stdout.flush()
        polls += 1
        if args.watch_count is None or polls < args.watch_count:
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                break
    return 0


def _cmd_top(args) -> int:
    import json as _json
    import time

    from .obs import Observability
    from .obs.heat import render_top
    from .runtime.batch import iter_batches
    from .runtime.service import RuntimeConfig, RuntimeService

    if args.watch is not None:
        return _cmd_top_watch(args)
    if args.path is None:
        print("top: a classifier path is required unless --watch is given",
              file=sys.stderr)
        return 2
    classifier, _ = _load(args.path)
    config = RuntimeConfig(
        batch_size=args.batch_size,
        num_shards=args.shards,
        shard_mode=args.shard_mode,
        engine=EngineConfig(
            max_groups=args.max_groups, enforce_cache=args.cache,
        ),
    )
    obs = Observability.create(
        tracing=False, heat=True, sample_period=args.heat_sample
    )
    trace = generate_trace(classifier, args.trace, seed=args.seed)
    live = args.live or (not args.json and sys.stdout.isatty())
    with RuntimeService(classifier, config, recorder=obs.recorder) as service:
        start = time.perf_counter()
        for i, batch in enumerate(iter_batches(trace, config.batch_size)):
            service.match_batch(batch)
            if live and (i + 1) % max(1, args.refresh_batches) == 0:
                snapshot = service.snapshot()
                frame = render_top(
                    obs.heat.report(),
                    latencies=snapshot.latencies,
                    k=args.k,
                    rules=classifier.rules,
                )
                # \x1b[H\x1b[J = cursor home + clear: cheap live refresh.
                sys.stdout.write("\x1b[H\x1b[J" + frame + "\n")
                sys.stdout.flush()
        elapsed = time.perf_counter() - start
        snapshot = service.snapshot()
        report = obs.heat.report()
        if args.heat_out:
            obs.heat.to_json(args.heat_out)
        if args.json:
            print(_json.dumps(report, indent=2))
        else:
            if live:
                sys.stdout.write("\x1b[H\x1b[J")
            rate = len(trace) / elapsed if elapsed else float("inf")
            print(render_top(
                report,
                latencies=snapshot.latencies,
                k=args.k,
                rules=classifier.rules,
            ))
            print(f"\nreplayed {len(trace)} packets in {elapsed:.2f}s "
                  f"({rate:,.0f} pkt/s), heat sample period "
                  f"{args.heat_sample}")
            if args.heat_out:
                print(f"wrote heat report to {args.heat_out}")
    return 0


def _cmd_experiments(args) -> int:
    from .bench import experiments as drivers
    from .bench.harness import cached_suite

    suite = cached_suite(rules=args.rules)
    runners = {
        "table1": (drivers.run_table1, drivers.render_table1),
        "table2": (drivers.run_table2, drivers.render_table2),
        "table3": (drivers.run_table3, drivers.render_table3),
        "figure1": (drivers.run_figure1, drivers.render_figure1),
        "figure6": (drivers.run_figure6, drivers.render_figure6),
    }
    run, render = runners[args.which]
    print(render(run(suite)))
    return 0


def _cmd_convert(args) -> int:
    classifier, profile = _load(args.src)
    _save(classifier, args.dst, profile)
    print(f"converted {args.src} -> {args.dst} "
          f"({len(classifier.body)} rules)")
    return 0


def _cmd_export_flows(args) -> int:
    from .workloads.openflow import flow_count, to_flow_table

    classifier, _ = _load(args.path)
    text = to_flow_table(classifier)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {flow_count(classifier)} flows "
              f"({len(classifier.body)} rules) to {args.out}")
    else:
        print(text, end="")
    return 0


#: Preferred REPORT.md section order; anything else lands under "Other".
_REPORT_ORDER = (
    ("Paper tables and figures",
     ("table1_space", "figure1_range_growth", "table2_mindnf",
      "table3_groups", "figure6_resolution")),
    ("Extra experiments",
     ("updates_insert", "updates_tcam_moves", "forwarding_v4_v6",
      "forwarding_xbw", "distribution_inversions", "redundancy_removal")),
    ("Ablations",
     ("ablation_mrc_order", "ablation_srge", "ablation_negative",
      "ablation_probe_structure", "ablation_cascading",
      "ablation_cache_power", "ablation_sweep", "ablation_fp_budget")),
)


def _cmd_report(args) -> int:
    import os

    directory = args.results
    if not os.path.isdir(directory):
        print(f"no results directory at {directory}; run "
              "`pytest benchmarks/ --benchmark-only` first",
              file=sys.stderr)
        return 2
    available = {
        name[:-4]
        for name in os.listdir(directory)
        if name.endswith(".txt")
    }
    sections: List[str] = ["# SAX-PAC reproduction report", ""]
    covered = set()
    for title, names in _REPORT_ORDER:
        present = [n for n in names if n in available]
        if not present:
            continue
        sections.append(f"## {title}")
        for name in present:
            covered.add(name)
            with open(os.path.join(directory, f"{name}.txt")) as handle:
                sections.append("```")
                sections.append(handle.read().rstrip())
                sections.append("```")
                sections.append("")
    leftovers = sorted(available - covered)
    if leftovers:
        sections.append("## Other")
        for name in leftovers:
            with open(os.path.join(directory, f"{name}.txt")) as handle:
                sections.append("```")
                sections.append(handle.read().rstrip())
                sections.append("```")
                sections.append("")
    out_path = args.out or os.path.join(directory, "REPORT.md")
    with open(out_path, "w") as handle:
        handle.write("\n".join(sections) + "\n")
    print(f"wrote {out_path} ({len(available)} result files)")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "report": _cmd_report,
    "analyze": _cmd_analyze,
    "profile": _cmd_profile,
    "classify": _cmd_classify,
    "runtime": _cmd_runtime,
    "serve": _cmd_serve,
    "client": _cmd_client,
    "cluster": _cmd_cluster,
    "flightrec": _cmd_flightrec,
    "top": _cmd_top,
    "experiments": _cmd_experiments,
    "convert": _cmd_convert,
    "export-flows": _cmd_export_flows,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
