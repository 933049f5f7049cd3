"""Server-side launcher of the served-stack benchmark.

Runs, in its own process, the stack ``repro serve`` starts by default:
a :class:`RuntimeService` with the default :class:`RuntimeConfig` (and
so the default :class:`EngineConfig`), unsharded, behind a
:class:`NetServer` with the default :class:`NetConfig`, so the stage
waterfall and the flight recorder are on.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 stackbench/server.py RULES.json POOL.json [--cpu N]

Once the port is bound it prints one JSON line ``{"port": ..., ...}``
with the set-up split.  It then reads one JSON command per line on
stdin and answers each with one JSON line on stdout:

``stats``    counters and group count
``stages``   start (``on``) or stop collecting the stage waterfall's
             rows; stopping answers with each stage's median
``updates``  apply ``pairs`` insert-and-remove pairs of the update
             schedule back to back; answers with each call's cost
``host``     time a fixed loop that calls nothing of the program
``trace``    install or remove the span wrappers of :mod:`tracing`
``net``      replace the NetServer by one with ``obs`` on or off
``quit``     stop everything, write the spans to ``spans`` if given

Rule updates follow the schedule in :mod:`oracle`: alternately insert
the next rule of the update pool and remove it again.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.net.server import NetConfig, serve_background  # noqa: E402
from repro.obs.stages import STAGES  # noqa: E402
from repro.runtime.service import RuntimeConfig, RuntimeService  # noqa: E402
from repro.saxpac.serialization import load_classifier  # noqa: E402

from tracing import SpanRecorder, layer_classes  # noqa: E402

#: Iterations of the fixed loop that ``host`` times.
HOST_LOOP = 200_000


def host_loop_ms() -> float:
    """Wall time (ms) of a fixed pure-Python loop that calls nothing of
    the program: a gauge of how fast the shared host runs this CPU at
    the moment, to tell a slower program from a slower host."""
    start = time.perf_counter()
    total = 0
    for i in range(HOST_LOOP):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


#: Seconds between two reads of the stage waterfall.  Its ring holds
#: 2048 rows, so no row is lost below ~20k requests per second.
STAGE_POLL_S = 0.1


class StageSampler:
    """Collects every waterfall row committed while it runs.

    A thread reads the rows committed since its last read every
    STAGE_POLL_S (``committed_total`` says how many), plus a margin,
    and drops the request ids the previous read already took, so a row
    committed between the count and the read is neither lost nor
    counted twice.
    """

    MARGIN = 64

    def __init__(self, waterfall) -> None:
        self.waterfall = waterfall
        self.rows: list = []
        self.lost = 0
        self._seen = waterfall.committed_total
        self._prev_ids: set = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        capacity = self.waterfall.capacity
        total = self.waterfall.committed_total
        new = total - self._seen
        self._seen = total
        self.lost += max(0, new - capacity)
        if new <= 0:
            return
        records = self.waterfall.recent(min(new + self.MARGIN, capacity))
        prev = self._prev_ids
        fresh = [r for r in records if r.request_id not in prev]
        self.rows.extend(r.stages for r in fresh[:new])
        self._prev_ids = {r.request_id for r in records}

    def _poll(self) -> None:
        while not self._stop.wait(STAGE_POLL_S):
            self._read()

    def stop(self) -> dict:
        """Stop, take the last rows and return the stage medians (µs)."""
        self._stop.set()
        self._thread.join()
        self._read()
        return {
            name: statistics.median(
                row.get(name, 0.0) for row in self.rows
            ) * 1e6
            for name in STAGES
        }


class Launcher:
    """One served stack plus the control commands the client sends."""

    def __init__(self, rules_path: str, pool_path: str) -> None:
        t0 = time.perf_counter()
        classifier, _ = load_classifier(rules_path)
        t1 = time.perf_counter()
        self.service = RuntimeService(classifier, RuntimeConfig())
        t2 = time.perf_counter()
        engine = self.service.swap.engine
        self.setup = {
            "load_s": t1 - t0,
            "service_s": t2 - t1,
            "build_s": engine.build_seconds,
            "build_stages_s": dict(engine.build_stages),
        }
        self.pool = load_classifier(pool_path)[0].body
        self.handle = serve_background(self.service, NetConfig())
        self.updates_done = 0
        self.inserted_id = None
        self.sampler = None
        self.spans = SpanRecorder()

    # -- rule updates --------------------------------------------------
    def update(self) -> dict:
        """Apply the next update of the schedule; return its log entry."""
        k = self.updates_done
        start = time.perf_counter()
        if k % 2 == 0:
            rule = self.pool[(k // 2) % len(self.pool)]
            report = self.service.insert(rule)
            if not report.accepted:
                raise RuntimeError(f"update {k}: insert was rejected")
            self.inserted_id = report.rule_id
        else:
            self.service.remove(self.inserted_id)
        seconds = time.perf_counter() - start
        self.updates_done += 1
        engine = self.service.swap.engine
        return {
            "kind": "insert" if k % 2 == 0 else "remove",
            "seconds": seconds,
            "stages_s": dict(getattr(engine, "build_stages", ())),
            "incremental": bool(getattr(engine, "build_incremental", False)),
        }

    # -- commands ------------------------------------------------------
    def cmd_stats(self) -> dict:
        engine = self.service.swap.engine
        return {
            "counters": dict(self.service.snapshot().counters),
            "groups": len(engine.software.groups),
        }

    def cmd_stages(self, on: bool) -> dict:
        if on:
            self.sampler = StageSampler(self.handle.server.stages)
            return {}
        medians = self.sampler.stop()
        reply = {"stages_us": medians, "rows": len(self.sampler.rows),
                 "lost": self.sampler.lost}
        self.sampler = None
        return reply

    def cmd_updates(self, pairs: int) -> dict:
        """``pairs`` insert-and-remove pairs back to back, so the
        ruleset ends as it began."""
        return {"log": [self.update() for _ in range(2 * pairs)]}

    @staticmethod
    def cmd_host() -> dict:
        return {"ms": statistics.median(host_loop_ms() for _ in range(3))}

    def cmd_trace(self, on: bool) -> dict:
        if on:
            self.spans.install(layer_classes())
        else:
            self.spans.uninstall()
        return {}

    def cmd_net(self, obs: bool) -> dict:
        self.handle.stop()
        self.handle = serve_background(
            self.service,
            NetConfig(stage_waterfall=obs, flight_recorder=obs),
        )
        return {"port": self.handle.port}

    def cmd_quit(self, spans: str | None = None) -> dict:
        if self.sampler is not None:
            self.sampler.stop()
        self.spans.uninstall()
        drained = self.handle.stop()
        self.service.close()
        if spans:
            self.spans.save(spans)
        return {"drained": drained}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rules")
    parser.add_argument("pool", help="rules the update schedule inserts")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the server to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    launcher = Launcher(args.rules, args.pool)
    out = sys.stdout
    out.write(json.dumps({"port": launcher.handle.port, **launcher.setup}))
    out.write("\n")
    out.flush()
    for line in sys.stdin:
        request = json.loads(line)
        name = request.pop("cmd")
        reply = getattr(launcher, f"cmd_{name}")(**request)
        out.write(json.dumps(reply) + "\n")
        out.flush()
        if name == "quit":
            return 0
    launcher.cmd_quit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
