"""Stdlib-only JSON HTTP surface over the scoring engine.

A :class:`ScoringServer` (a ``ThreadingHTTPServer``) exposes four
endpoints:

``POST /score``
    Body ``{"utterances": [<utterance json>, ...]}`` (see
    :func:`repro.serve.protocol.utterance_to_json`).  Every utterance is
    submitted to the engine's micro-batching queue — concurrent requests
    from different connections coalesce into shared matrix batches — and
    the response carries calibrated detection log-odds per language plus
    arg-max predictions and a ``degraded`` flag (true when circuit-broken
    frontends forced the linear-fusion fallback).  Overload is surfaced,
    never buffered: a full queue returns **429** with ``Retry-After``,
    and a request that cannot finish within the engine's deadline
    returns **503** — a stalled decode can reject traffic but can never
    pin handler threads indefinitely.
``GET /healthz``
    Liveness + a summary of the loaded system, including ``degraded``
    and the per-frontend circuit-breaker states.
``GET /stats``
    The engine's :meth:`~repro.serve.engine.ScoringEngine.stats`
    snapshot.  The historical flat keys (requests, batches, cache
    hits/misses, per-stage p50/p95) are kept as compatibility views;
    the full :mod:`repro.obs.metrics` registry snapshot — every
    ``serve.*`` counter/gauge/histogram with p50/p95/p99 — is nested
    under ``"metrics"``.  See ``docs/serving.md``.
``GET /metricz``
    The raw registry snapshot *with histogram reservoir samples*
    (``snapshot(include_samples=True)``) — the mergeable form the
    cluster front door (:mod:`repro.cluster`) pulls from each worker
    so :func:`repro.obs.metrics.merge_snapshots` can compute honest
    cross-worker percentiles.

Error responses sent before the request body has been consumed carry
``Connection: close`` — replying 400 and keeping the connection alive
would make the next pipelined request parse stale body bytes as a
request line (an HTTP/1.1 keep-alive desync).

Only the standard library is used (``http.server`` + ``json``), so the
service runs anywhere the package does.  This is an internal-tier
service: put a real ingress in front of it before exposing it publicly.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.serve.engine import (
    DeadlineExceededError,
    EngineClosedError,
    QueueFullError,
    ScoringEngine,
)
from repro.serve.protocol import utterance_from_json

__all__ = [
    "JsonRequestHandler",
    "ScoringServer",
    "ScoringRequestHandler",
    "make_server",
    "run_server",
]

#: Cap on accepted request bodies (16 MiB) — a crude but effective guard
#: against memory-exhaustion by a single oversized POST.
MAX_BODY_BYTES = 16 << 20

#: ``Retry-After`` seconds suggested on 429/503 responses.
RETRY_AFTER_S = 1


class JsonRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP/1.1 plumbing shared by the worker and front-door tiers.

    Owns the wire rules both tiers must agree on: keep-alive framing,
    ``Retry-After`` on every 429/503, and reading the ``POST /score``
    body (``Content-Length`` bound by :data:`MAX_BODY_BYTES`) with
    ``Connection: close`` on any error sent before the body was read.
    """

    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging (stats() is the telemetry)."""

    def _send_json(self, status: int, payload: dict, *, close: bool = False) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status in (429, 503):
            self.send_header("Retry-After", str(RETRY_AFTER_S))
        if close:
            # The request body was not (fully) read; keeping this
            # connection alive would desync the next pipelined request.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, message: str, *, close: bool = False
    ) -> None:
        self._send_json(status, {"error": message}, close=close)

    def _read_utterances(self, convert=None) -> list | None:
        """The ``utterances`` list of a ``POST /score`` body.

        Each entry is passed through ``convert`` when given.  On any
        problem the error response is sent here and ``None`` returned.
        """
        if self.path != "/score":
            self._send_error_json(
                404, f"unknown path {self.path!r}", close=True
            )
            return None
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error_json(400, "bad Content-Length", close=True)
            return None
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_error_json(
                400, "request body missing or too large", close=True
            )
            return None
        try:
            utterances = json.loads(self.rfile.read(length))["utterances"]
            if not isinstance(utterances, list):
                raise TypeError("utterances must be a list")
            if convert is not None:
                utterances = [convert(u) for u in utterances]
        except (KeyError, TypeError, ValueError) as exc:
            self._send_error_json(400, f"bad request: {exc}")
            return None
        return utterances


class ScoringRequestHandler(JsonRequestHandler):
    """Routes /score, /healthz and /stats onto the owning server's engine."""

    server: "ScoringServer"

    def do_GET(self) -> None:
        """Serve /healthz and /stats."""
        engine = self.server.engine
        if self.path == "/healthz":
            trained = engine.trained
            degraded = engine.degraded
            self._send_json(
                200,
                {
                    "status": "degraded" if degraded else "ok",
                    "degraded": degraded,
                    "breakers": engine.breaker_states(),
                    "languages": list(trained.language_names),
                    "frontends": [fe.name for fe in trained.frontends],
                    "subsystems": [name for name, _ in trained.subsystems],
                },
            )
        elif self.path == "/stats":
            self._send_json(200, engine.stats())
        elif self.path == "/metricz":
            self._send_json(
                200, engine.metrics.snapshot(include_samples=True)
            )
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:
        """Serve /score."""
        utterances = self._read_utterances(utterance_from_json)
        if utterances is None:
            return
        engine = self.server.engine
        if not utterances:
            self._send_json(
                200,
                {
                    "languages": list(engine.languages),
                    "utt_ids": [],
                    "scores": [],
                    "predictions": [],
                    "degraded": engine.degraded,
                },
            )
            return
        # The request leaves the gauge before its response is written, so
        # a client's next /stats can never still count it in flight.
        inflight = engine.metrics.gauge("serve.inflight")
        inflight.add(1)
        try:
            status, payload = self._score(engine, utterances)
        finally:
            inflight.add(-1)
        self._send_json(status, payload)

    def _score(self, engine: ScoringEngine, utterances: list) -> tuple[int, dict]:
        """Submit one request's utterances; ``(status, payload)`` to send."""
        start = time.monotonic()
        try:
            futures = [engine.submit(u) for u in utterances]
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except EngineClosedError as exc:
            return 503, {"error": str(exc)}
        try:
            rows = []
            for future in futures:
                timeout = None
                if engine.deadline is not None:
                    timeout = max(
                        0.0, engine.deadline - (time.monotonic() - start)
                    )
                rows.append(future.result(timeout=timeout))
            scores = np.vstack(rows)
        except (FutureTimeoutError, DeadlineExceededError):
            # Never pin a handler thread behind a stalled decode: give
            # the batcher its queued work back as cancellations and shed
            # the request.
            for future in futures:
                future.cancel()
            return 503, {"error": "scoring did not finish within the deadline"}
        except Exception as exc:  # engine-side failure
            return 500, {"error": f"scoring failed: {exc}"}
        return 200, {
            "languages": list(engine.languages),
            "utt_ids": [u.utt_id for u in utterances],
            "scores": scores.tolist(),
            "predictions": engine.predict_languages(scores),
            "degraded": engine.degraded,
        }


class ScoringServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ScoringEngine`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], engine: ScoringEngine) -> None:
        super().__init__(address, ScoringRequestHandler)
        self.engine = engine


def make_server(
    engine: ScoringEngine, host: str = "127.0.0.1", port: int = 8337
) -> ScoringServer:
    """Bind a :class:`ScoringServer` (engine started; not yet serving).

    The socket is bound *before* the engine's batcher thread starts, and
    a bind failure (``OSError``, e.g. the port is taken) closes the
    engine — a failed ``make_server`` leaves no live batcher thread
    behind.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (used by tests and benchmarks).
    """
    try:
        server = ScoringServer((host, port), engine)
    except OSError:
        engine.close()
        raise
    try:
        engine.start()
    except Exception:
        server.server_close()
        raise
    return server


def run_server(
    engine: ScoringEngine,
    host: str = "127.0.0.1",
    port: int = 8337,
    *,
    announce=print,
) -> None:
    """Serve until interrupted, then drain the engine cleanly."""
    server = make_server(engine, host, port)
    bound_host, bound_port = server.server_address[:2]
    announce(
        f"repro.serve listening on http://{bound_host}:{bound_port} "
        f"(endpoints: /score /healthz /stats)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        announce("shutting down")
    finally:
        server.server_close()
        engine.close()
