"""Served-stack benchmark: the default ``repro serve`` stack over loopback.

Run from the root of a checkout::

    python3 stackbench/run.py --workload bulk-ipc5k --seed 2014 \\
        --seconds 20 --trace 0

Each run starts the server launcher (``stackbench/server.py``) in its
own process, drives the workload at it over 127.0.0.1 from this process
on one connection, checks every answer against a first-match reference
(:mod:`oracle`), and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it record the workload, seed, ``cpu_count``, the transport and
the details behind each metric.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays
the same workload with the layer methods wrapped in spans
(:mod:`tracing`) and reports the per-layer metrics; its end-to-end
numbers come from an untraced window of the same server, so the
difference is the tracing overhead.  ``LAYERS.md`` lists which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.saxpac.serialization import save_classifier  # noqa: E402
from repro.workloads.generator import generate_classifier  # noqa: E402
from repro.workloads.traces import generate_trace  # noqa: E402

from client import Driver, Window  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracing import load_spans, self_cpu, self_times  # noqa: E402


@dataclass(frozen=True)
class Workload:
    style: str
    rules: int
    packets_per_request: int
    window: int
    #: Request blocks cycled through; the engine keeps no result cache,
    #: so repeating blocks costs the same as fresh ones.
    blocks: int


WORKLOADS = {
    # Lookup work dominates each request and D is most of it.
    "bulk-ipc5k": Workload("ipc", 5000, 1024, 8, 16),
    # Per-request wire and runtime costs dominate; the lookup is tiny.
    "small-acl1k": Workload("acl", 1000, 1, 32, 4096),
}

#: Seed of every workload's ruleset and update pool.  The ruleset's
#: shape (|D|, the groups) is what each workload is chosen for, so it
#: stays fixed; ``--seed`` drives the traffic.
RULESET_SEED = 2014
#: Warm-up before any measured window (first lookups, first rebuild).
WARMUP_S = 2.0
#: The measured window is cut into SEGMENTS equal parts.  After each
#: part the closed loop drains and UPDATE_PAIRS insert-and-remove pairs
#: of rule updates run back to back with no traffic, so the update
#: calls are timed without waits for the GIL, every run times the same
#: pool rules, and the update samples span the run as the lookup
#: samples do.  Every part serves the same ruleset.  8 x 7 pairs give
#: 112 calls, so the p90 has ten calls beyond it.
SEGMENTS = 8
UPDATE_PAIRS = 7
#: Set-ups per run: up to SETUPS, while their total stays below
#: SETUP_BUDGET_S (a 5k-rule set-up alone can take longer).
SETUPS = 3
SETUP_BUDGET_S = 12.0
#: Update-pool size; the schedule cycles through it.
POOL_RULES = 128
#: Longest wait for the launcher to come up or answer a command.
CONTROL_TIMEOUT_S = 150.0
#: A client busier than this share of one CPU may limit the load.
GENERATOR_BOUND = 0.9
#: The tail percentile.  Above p90 the stalls of a shared host decide
#: the value: over ten small-acl1k runs on a 2-vCPU VM with 7-14% steal
#: time, p99.9, p99 and p95 spread by 29%, 27% and 44% of their medians.
TAIL_PERCENTILE = 90.0


def pin_cpus() -> tuple:
    """Pin this process (the client) to one CPU and pick another for
    the server: ``(client_cpu, server_cpu)``, or ``(None, None)`` on a
    single-CPU host.  Server and client then never compete for a CPU,
    and the scheduler cannot move them, which steadies the numbers."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[-1]


class ServerProc:
    """The launcher process and its JSON-lines control channel."""

    def __init__(self, rules: Path, pool: Path, cpu: int | None) -> None:
        pin = [] if cpu is None else ["--cpu", str(cpu)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(rules), str(pool),
             *pin],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
        )
        self._buf = b""
        self.ready = None
        try:
            self.ready = self._reply()
        except BaseException:
            self.stop()
            raise

    def _reply(self) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + CONTROL_TIMEOUT_S
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("server launcher did not answer")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ConnectionError("server launcher exited")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, cmd: str, **kwargs) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **kwargs}).encode())
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        return self._reply()

    def cpu_s(self) -> float:
        """User + system CPU seconds of the launcher so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK"
        )

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, spans: Path | None = None) -> None:
        """Quit the launcher and wait for it; kill it if it hangs."""
        try:
            if self.proc.poll() is None and self.ready is not None:
                self.call("quit", spans=str(spans) if spans else None)
                self.proc.wait(30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            for pipe in (self.proc.stdin, self.proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass


@dataclass
class Measured:
    """One measured window plus the server-side view of it."""

    window: Window
    cpu_s: float
    before: dict
    after: dict

    @property
    def cpu_us_per_pkt(self) -> float:
        return self.cpu_s / self.window.all_packets * 1e6

    def delta(self, *names: str) -> int:
        return sum(
            self.after["counters"].get(n, 0)
            - self.before["counters"].get(n, 0)
            for n in names
        )


class Bench:
    """Inputs, server launches and windows of one benchmark run."""

    def __init__(self, name: str, seed: int, seconds: float,
                 server_cpu: int | None = None) -> None:
        self.wl = WORKLOADS[name]
        self.seconds = seconds
        self.workdir = ROOT / ".stackbench" / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        wl = self.wl
        classifier = generate_classifier(wl.style, wl.rules, RULESET_SEED)
        pool = generate_classifier(wl.style, POOL_RULES, RULESET_SEED + 1)
        count = wl.blocks * wl.packets_per_request
        trace = np.asarray(generate_trace(classifier, count, seed),
                           dtype=np.uint32)
        blocks = trace.reshape(wl.blocks, wl.packets_per_request, -1)
        self.rules_path = self.workdir / "rules.json"
        self.pool_path = self.workdir / "pool.json"
        save_classifier(classifier, str(self.rules_path))
        save_classifier(pool, str(self.pool_path))
        oracle = Oracle(classifier, list(blocks), pool.body)
        self.driver = Driver(oracle, list(blocks), wl.window)
        self.setups: list = []
        self.setup_rss: list = []
        self.checks: dict = {}
        self.server_cpu = server_cpu

    def close(self) -> None:
        self.driver.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- building blocks -----------------------------------------------
    def launch(self) -> ServerProc:
        """Start a server; the set-up ends with the first checked answer."""
        server = ServerProc(self.rules_path, self.pool_path, self.server_cpu)
        try:
            self.driver.connect(server.ready["port"])
            self.driver.probe()
            self.setups.append(time.perf_counter() - server.started)
            self.setup_rss.append(server.peak_rss_mb())
        except BaseException:
            server.stop()
            raise
        return server

    def measure(self, server: ServerProc, seconds: float) -> Measured:
        """One measured window, without rule updates."""
        before = server.call("stats")
        cpu0 = server.cpu_s()
        window = self.driver.run(seconds)
        cpu1 = server.cpu_s()
        return Measured(window, cpu1 - cpu0, before, server.call("stats"))

    @staticmethod
    def update_burst(server: ServerProc) -> list:
        """UPDATE_PAIRS rule-update pairs with no traffic; their log."""
        return server.call("updates", pairs=UPDATE_PAIRS)["log"]

    def stage_medians(self, server: ServerProc, seconds: float) -> dict:
        """Per-stage waterfall medians over every request of one more
        window (a window of its own: collecting the rows costs server
        CPU, which must not reach the windows that measure CPU)."""
        server.call("stages", on=True)
        self.driver.run(seconds)
        reply = server.call("stages", on=False)
        self.checks.update(stage_rows=reply["rows"],
                           stage_rows_lost=reply["lost"])
        return reply["stages_us"]

    def extra_setups(self) -> None:
        while len(self.setups) < SETUPS and sum(self.setups) < SETUP_BUDGET_S:
            self.launch().stop()

    # -- the two kinds of run ------------------------------------------
    def end_to_end(self) -> dict:
        server = self.launch()
        parts, updates, host_ms = [], [], []
        try:
            self.driver.run(WARMUP_S)
            for _ in range(SEGMENTS):
                parts.append(self.measure(server, self.seconds / SEGMENTS))
                updates += self.update_burst(server)
                host_ms.append(server.call("host")["ms"])
            serving_rss = server.peak_rss_mb()
        finally:
            self.driver.close()
            server.stop()
        self.extra_setups()
        windows = [m.window for m in parts]
        lat_ms = [np.asarray(w.latencies_s) * 1e3 for w in windows]
        # The tail of each part, then their median: a few seconds in
        # which the host stalls the server move one part, not the value.
        req_tail = statistics.median(
            float(np.percentile(ms, TAIL_PERCENTILE)) for ms in lat_ms)
        calls_ms = np.array([u["seconds"] for u in updates]) * 1e3
        # An insert costs more than the remove after it; the median of
        # the calls would fall in the gap between the two, so the p50 is
        # taken over the pairs' mean call times.  It is not a metric:
        # over ten-run sets on a shared 2-vCPU VM it spread by up to 46%
        # of its median, the p90 of the calls by up to 18%.
        pairs_ms = calls_ms.reshape(-1, 2).mean(axis=1)
        busy = (sum(w.client_cpu_s for w in windows)
                / sum(w.end - w.start for w in windows))
        attempted = self.driver.attempted
        self.checks.update(
            req_samples=sum(ms.size for ms in lat_ms),
            update_calls=int(calls_ms.size),
            update_p50_ms=float(np.median(pairs_ms)),
            setups_s=self.setups,
            setup_rss_mb=self.setup_rss,
            serving_peak_rss_mb=serving_rss,
            client_busy_share=busy,
            generator_bound=busy > GENERATOR_BOUND,
            host_loop_ms=statistics.median(host_ms),
        )
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "pps": (sum(w.packets for w in windows) / sum(
                w.last_answer - w.start for w in windows), "pkt/s"),
            "req_p50_ms": (float(np.median(np.concatenate(lat_ms))), "ms"),
            "req_tail_ms": (req_tail, "ms"),
            "ok_share": (1.0 - self.driver.failed / attempted, "ratio"),
            "server_cpu_us_per_pkt": (
                sum(m.cpu_s for m in parts)
                / sum(w.all_packets for w in windows) * 1e6, "us"),
            # The peak while serving is on the detail line only: it
            # depends on what the allocator kept of earlier batches, and
            # over ten bulk-ipc5k runs it read 72, 78 or 81 MB.
            "server_rss_mb": (statistics.median(self.setup_rss), "MB"),
            "update_tail_ms": (
                float(np.percentile(calls_ms, TAIL_PERCENTILE)), "ms"),
        }

    def per_layer(self) -> dict:
        spans_path = self.workdir / "spans.npz"
        # Four windows of half the run length keep a traced run about
        # as long as two end-to-end runs.
        window = self.seconds / 2
        server = self.launch()
        try:
            self.driver.run(WARMUP_S)
            plain = self.measure(server, window)
            stages = self.stage_medians(server, window)
            server.call("trace", on=True)
            traced = self.measure(server, window)
            updates = []
            for _ in range(SEGMENTS):
                updates += self.update_burst(server)
            server.call("trace", on=False)
            self.driver.connect(server.call("net", obs=False)["port"])
            self.driver.run(WARMUP_S / 2)
            no_obs = self.measure(server, window)
            ready = server.ready
        finally:
            self.driver.close()
            server.stop(spans_path)
        names, cols = load_spans(str(spans_path))
        busy = plain.window.client_busy_share
        self.checks.update(
            client_busy_share=busy,
            generator_bound=busy > GENERATOR_BOUND,
            spans=int(cols["sid"].size),
        )
        metrics, wall = span_metrics(names, cols, traced)
        self.checks["wall_us_per_pkt"] = wall
        self.checks["engine_cpu_share"] = (
            metrics["saxpac.engine_us_per_pkt"][0]
            / wall["saxpac.engine_us_per_pkt"]
        )
        self.checks["runtime_fallbacks"] = plain.delta(
            "runtime.batch_fallbacks", "runtime.fallback_batches",
            "runtime.shed")
        lookups = plain.delta("engine.lookups")
        checks = plain.delta("groups.fp_checks")
        metrics.update({
            "lookup.groups": (plain.after["groups"], "count"),
            "lookup.candidates_per_pkt": (checks / lookups, "count"),
            "lookup.fp_share": (
                plain.delta("groups.fp_failures") / checks if checks
                else 0.0, "ratio"),
            "saxpac.software_hit_share": (
                plain.delta("engine.software_hits") / lookups, "ratio"),
            "net.req_per_lookup": (
                plain.delta("net.requests") / plain.delta("net.lookups"),
                "count"),
            "obs.cpu_share": (
                1.0 - no_obs.cpu_us_per_pkt / plain.cpu_us_per_pkt, "ratio"),
            "trace.overhead_share": (
                1.0 - traced.window.pps / plain.window.pps, "ratio"),
            "client.busy_share": (busy, "ratio"),
            "saxpac.dyn_load_s": (
                ready["service_s"] - ready["build_s"], "s"),
            "saxpac.build_s": (ready["build_s"], "s"),
        })
        for stage in ("decode", "queue_wait", "coalesce_wait", "lookup",
                      "encode", "write"):
            metrics[f"net.{stage}_p50_us"] = (stages[stage], "us")
        for stage in ("disjointness", "grouping", "lookup", "tcam"):
            metrics[f"saxpac.build.{stage}_s"] = (
                ready["build_stages_s"].get(stage, 0.0), "s")
        for stage in ("diff", "grouping", "lookup", "tcam"):
            metrics[f"saxpac.rebuild.{stage}_ms"] = (statistics.median(
                u["stages_s"].get(stage, 0.0) for u in updates) * 1e3, "ms")
        metrics["saxpac.rebuild_incremental_share"] = (
            sum(u["incremental"] for u in updates) / len(updates), "ratio")
        return metrics


def span_metrics(names, cols, traced: Measured) -> tuple:
    """Per-layer metrics computed from the traced window's spans, and
    the wall-time twins of the per-packet ones.

    The per-packet self times are thread CPU times: wall time would
    also count the waits for the GIL while the server's other threads
    run.  Self times are span minus children, so the D, probe and
    verify parts add up to the whole engine span."""
    name = np.array(names, dtype=object)[cols["name"].astype(int)]
    start, end, cpu = cols["start"], cols["end"], cols["cpu"]
    sid, parent, n = cols["sid"], cols["parent"], cols["n"]
    self_wall = self_times(start, end, parent, sid)
    self_c = self_cpu(cpu, parent, sid)
    dur = end - start
    by_sid = {int(s): str(nm) for s, nm in zip(sid, name)}
    window = (start >= traced.window.start) & (end <= traced.window.end)

    def pick(label):
        return (name == label) & window

    engine = pick("SaxPacEngine.match_batch_indices")
    packets = n[engine].sum()
    lookup = pick("MultiGroupEngine.lookup_batch")
    probe = np.array(
        [str(nm).endswith(".probe_batch")
         and by_sid.get(int(p)) == "MultiGroupEngine.lookup_batch"
         for nm, p in zip(name, parent)], dtype=bool) & window
    runtime = pick("RuntimeService.match_indices")
    dyn = np.isin(name, ["DynamicSaxPac.insert", "DynamicSaxPac.remove"])
    rebuild = name == "SaxPacEngine.rebuild"
    calls = int(runtime.sum())
    requests = traced.window.all_requests
    # Outermost spans in the window: lookups, and rule updates.
    inside_s = cpu[(parent < 0) & window].sum()
    per_pkt = {
        "saxpac.engine_us_per_pkt": (cpu, dur, engine),
        "saxpac.d_self_us_per_pkt": (self_c, self_wall, engine),
        "lookup.probe_us_per_pkt": (cpu, dur, probe),
        "lookup.verify_us_per_pkt": (self_c, self_wall, lookup),
    }
    metrics = {
        key: (c[mask].sum() / packets * 1e6, "us")
        for key, (c, _, mask) in per_pkt.items()
    }
    wall = {
        key: w[mask].sum() / packets * 1e6
        for key, (_, w, mask) in per_pkt.items()
    }
    metrics.update({
        "runtime.self_us_per_call": (self_c[runtime].sum() / calls * 1e6,
                                     "us"),
        "runtime.pkts_per_call": (n[runtime].sum() / calls, "count"),
        "net.self_cpu_us_per_req": (
            (traced.cpu_s - inside_s) / requests * 1e6, "us"),
        "saxpac.rebuild_ms": (float(np.median(dur[rebuild])) * 1e3, "ms"),
        "saxpac.dyn_update_ms": (float(np.median(dur[dyn])) * 1e3, "ms"),
    })
    return metrics, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    client_cpu, server_cpu = pin_cpus()
    bench = Bench(args.workload, args.seed, args.seconds, server_cpu)
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        bench.close()
    driver = bench.driver
    correct = driver.failed == 0
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "transport": "tcp over loopback (127.0.0.1), one connection",
        "client_cpu": client_cpu,
        "server_cpu": server_cpu,
        "errors": driver.errors,
        "mismatches": driver.mismatches,
        **bench.checks,
    }))
    if bench.checks.get("generator_bound"):
        print("warning: the client was busy more than "
              f"{GENERATOR_BOUND:.0%} of the window; the load generator "
              "may limit these numbers", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "metrics": {
            key: {"value": float(value), "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
