"""The live observability endpoint: scrape the serve layer over HTTP.

A tiny stdlib-only (:mod:`http.server`) HTTP front-end that mounts on a
running :class:`~repro.serve.QueryService` or
:class:`~repro.serve.ClusterService` and exposes the telemetry plane:

``/metrics``
    Prometheus text exposition over the merged registries — service
    counters and latency histograms, tracer aggregates, and (cluster
    mode) the per-worker and per-shard series.  This is the scrape
    target ``repro top`` polls.
``/healthz``
    JSON liveness/health: overall status, per-document breaker states
    (:meth:`QueryService.health`), per-worker liveness and queue depth
    (cluster mode), and queue/in-flight gauges.  Answers ``200`` when
    healthy, ``503`` otherwise, so it slots straight into a probe.
``/flight``
    The :class:`~repro.trace.FlightSnapshot` as JSON — the K slowest
    and most recent retained request traces.
``/traces/<id>``
    One retained trace by id; ``?format=chrome`` renders it as Chrome
    trace-event JSON (for a stitched cluster trace this shows worker
    spans nested under the coordinator root).

The server is deliberately read-only — every handler snapshots through
the same public accessors tests use (``stats()``, ``health()``,
``cluster_stats()``, ``flight_recorder()``), so a scrape can never
mutate service state.  It duck-types the service: cluster-only
sections appear exactly when the service grows the corresponding
accessor.  See ``docs/OBSPLANE.md``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..trace import chrome_trace, prometheus_text

__all__ = ["ObservabilityServer", "CONTENT_TYPE_PROMETHEUS"]

#: the content type Prometheus expects from a text-format scrape.
CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


class ObservabilityServer:
    """Serves ``/metrics``, ``/healthz``, ``/flight`` and
    ``/traces/<id>`` for one service instance.

    ``port=0`` (the default) binds an ephemeral port; read the bound
    address back from :attr:`url`.  The server runs ``serve_forever``
    on a daemon thread and each request on its own thread
    (:class:`~http.server.ThreadingHTTPServer`), so a slow scraper
    never blocks the service — handlers only take snapshots.
    """

    def __init__(self, service: Any, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            # Observability must not spam the serving process's stderr.
            def log_message(self, format: str, *args: Any) -> None:
                pass

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    status, content_type, body = outer._route(self.path)
                except Exception as err:  # pragma: no cover - defensive
                    status, content_type, body = 500, "application/json", \
                        json.dumps({"error": str(err)}).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ObservabilityServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-obsplane", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- routing -------------------------------------------------------------

    def _route(self, path: str) -> Tuple[int, str, bytes]:
        parsed = urlparse(path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/metrics":
            return self._metrics()
        if route == "/healthz":
            return self._healthz()
        if route == "/flight":
            return self._flight()
        if route.startswith("/traces/"):
            query = parse_qs(parsed.query)
            trace_format = query.get("format", ["json"])[0]
            return self._trace(route[len("/traces/"):], trace_format)
        if route == "/":
            return _json_response(200, {
                "endpoints": ["/metrics", "/healthz", "/flight",
                              "/traces/<id>"]})
        return _json_response(404, {"error": f"no route {route!r}"})

    # -- handlers ------------------------------------------------------------

    def _metrics(self) -> Tuple[int, str, bytes]:
        cluster = None
        cluster_stats = getattr(self.service, "cluster_stats", None)
        if callable(cluster_stats):
            cluster = cluster_stats()
        text = prometheus_text(metrics=self.service.metrics,
                               tracer=self.service.tracer,
                               cluster=cluster)
        return 200, CONTENT_TYPE_PROMETHEUS, text.encode("utf-8")

    def _healthz(self) -> Tuple[int, str, bytes]:
        stats = self.service.stats()
        health = self.service.health()
        payload: Dict[str, Any] = {
            # The service's own vocabulary: healthy | degraded |
            # unhealthy (repro.serve.resilience).
            "status": health.status,
            "documents": health.to_dict(),
            "queue_depth": stats.queue_depth,
            "in_flight": stats.in_flight,
            "counters": stats.to_dict(),
        }
        cluster_stats = getattr(self.service, "cluster_stats", None)
        if callable(cluster_stats):
            cluster = cluster_stats()
            payload["workers"] = [asdict(worker)
                                  for worker in cluster.workers]
            payload["respawns"] = cluster.respawns
            if not all(worker.alive for worker in cluster.workers) \
                    and payload["status"] == "healthy":
                payload["status"] = "degraded"
        status = 200 if payload["status"] == "healthy" else 503
        return _json_response(status, payload)

    def _flight(self) -> Tuple[int, str, bytes]:
        snapshot = self.service.flight_recorder()
        if snapshot is None:
            return _json_response(
                404, {"error": "service runs without a flight recorder"})
        return _json_response(200, snapshot.to_dict())

    def _trace(self, trace_id: str,
               trace_format: str) -> Tuple[int, str, bytes]:
        snapshot = self.service.flight_recorder()
        if snapshot is None:
            return _json_response(
                404, {"error": "service runs without a flight recorder"})
        for trace in snapshot.traces():
            if trace.trace_id == trace_id:
                if trace_format == "chrome":
                    return _json_response(200, chrome_trace(trace))
                return _json_response(200, trace.to_dict())
        return _json_response(
            404, {"error": f"trace {trace_id!r} is not retained"})


def _json_response(status: int,
                   payload: Dict[str, Any]) -> Tuple[int, str, bytes]:
    body = json.dumps(payload, sort_keys=True, default=str)
    return status, "application/json", body.encode("utf-8")
