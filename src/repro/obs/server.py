"""Stdlib HTTP endpoint exposing runtime telemetry.

:class:`MetricsServer` wraps ``http.server.ThreadingHTTPServer`` in a
daemon thread and serves three read-only endpoints:

* ``/metrics``  — Prometheus text exposition
  (:func:`~repro.obs.prometheus.render_prometheus`);
* ``/healthz``  — liveness + degradation: 200 ``{"status": "ok"}``, or
  503 ``{"status": "degraded"}`` while the linear fallback is serving;
* ``/snapshot`` — the full JSON telemetry snapshot
  (:meth:`~repro.runtime.telemetry.TelemetrySnapshot.as_dict`), plus any
  gauges the owner injects (engine generation, heat summary, ...);
* ``/flightrecorder`` — the wire server's flight-recorder dump (span
  trees + stage waterfalls of retained anomalous requests); 404 when no
  flight recorder is attached.

The server pulls state through callables supplied by its owner (the
:class:`~repro.runtime.service.RuntimeService`), so a scrape always sees
a fresh consistent snapshot — including per-shard telemetry folded back
at snapshot time — and holds no reference to engine internals.  Bind to
``port=0`` to pick an ephemeral port (see :attr:`MetricsServer.port`).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Mapping, Optional

from ..runtime.telemetry import TelemetrySnapshot
from .prometheus import render_prometheus

__all__ = ["MetricsServer"]

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    server_version = "saxpac-obs/1"

    def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
        owner: "MetricsServer" = self.server.owner  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = owner.render_metrics().encode("utf-8")
            self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/healthz":
            healthy, payload = owner.render_health()
            body = json.dumps(payload).encode("utf-8")
            self._reply(200 if healthy else 503, "application/json", body)
        elif path == "/snapshot":
            body = json.dumps(owner.render_snapshot()).encode("utf-8")
            self._reply(200, "application/json", body)
        elif path == "/flightrecorder":
            dump = owner.render_flightrec()
            if dump is None:
                self._reply(
                    404, "application/json",
                    b'{"error": "no flight recorder attached"}',
                )
            else:
                body = json.dumps(dump).encode("utf-8")
                self._reply(200, "application/json", body)
        else:
            self._reply(
                404, "application/json",
                b'{"error": "unknown path", "endpoints": ["/metrics", '
                b'"/healthz", "/snapshot", "/flightrecorder"]}',
            )

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # silence per-request stderr noise
        pass


class MetricsServer:
    """Threaded metrics endpoint over a snapshot source.

    ``snapshot_source`` returns a fresh
    :class:`~repro.runtime.telemetry.TelemetrySnapshot` per request;
    ``health_source`` returns ``(healthy, payload_dict)``;
    ``gauges_source`` returns extra point-in-time gauges for ``/metrics``
    and ``/snapshot``; ``stages_source`` returns the stage-waterfall
    aggregate dict (or None) rendered as exemplar-bearing histograms on
    ``/metrics``; ``flight_source`` returns the flight recorder's dump
    (or None) for ``/flightrecorder``.  All are called on the serving
    thread, so they must be thread-safe (telemetry snapshots are).
    """

    def __init__(
        self,
        snapshot_source: Callable[[], TelemetrySnapshot],
        host: str = "127.0.0.1",
        port: int = 0,
        health_source: Optional[Callable[[], tuple]] = None,
        gauges_source: Optional[Callable[[], Mapping[str, float]]] = None,
        stages_source: Optional[Callable[[], Optional[Mapping]]] = None,
        flight_source: Optional[Callable[[], Optional[Dict]]] = None,
    ) -> None:
        self._snapshot_source = snapshot_source
        self._health_source = health_source
        self._gauges_source = gauges_source
        self._stages_source = stages_source
        self._flight_source = flight_source
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.owner = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="saxpac-metrics",
            daemon=True,
        )
        self._thread.start()

    # -- address -------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- endpoint bodies (exposed for tests and the CLI) ---------------
    def render_metrics(self) -> str:
        gauges = dict(self._gauges_source()) if self._gauges_source else {}
        stages = self._stages_source() if self._stages_source else None
        return render_prometheus(
            self._snapshot_source(), extra_gauges=gauges, stage_stats=stages
        )

    def render_flightrec(self) -> Optional[Dict[str, object]]:
        if self._flight_source is None:
            return None
        return self._flight_source()

    def render_health(self) -> tuple:
        if self._health_source is not None:
            return self._health_source()
        return True, {"status": "ok"}

    def render_snapshot(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "telemetry": self._snapshot_source().as_dict()
        }
        if self._gauges_source is not None:
            payload["gauges"] = dict(self._gauges_source())
        return payload

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
