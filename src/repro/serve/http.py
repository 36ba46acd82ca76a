"""Stdlib HTTP front end for :class:`~repro.serve.server.InferenceServer`.

A thin JSON-over-HTTP adapter (no third-party dependencies: plain
``http.server`` with a threading server, one thread per connection) exposing:

========  ==============================  =========================================
Method    Path                            Meaning
========  ==============================  =========================================
GET       ``/healthz``                    readiness probe (200 ok / 503 degraded)
GET       ``/stats``                      server-wide per-pipeline stats
GET       ``/v1/models``                  published models and versions
GET       ``/v1/models/<name>``           program metadata (``?version=N``)
GET       ``/v1/models/<name>/stats``     latency/throughput/queue stats
POST      ``/v1/models/<name>/predict``   run inference (``?version=N``)
POST      ``/v1/models/<name>/stream``    stateful streaming inference (chunked)
========  ==============================  =========================================

``predict`` accepts ``{"inputs": <nested list>}`` holding either one sample
(shape = the program's input shape) or a batch (one extra leading axis), plus
optional ``"timeout_ms"`` (request deadline; expiry → 504) and ``"priority"``
(admission class; ``X-Timeout-Ms`` / ``X-Request-Priority`` headers work too).
Batch rows are submitted to the dynamic batcher individually, so concurrent
HTTP clients coalesce into shared executor batches exactly like programmatic
ones.

``stream`` accepts ``{"frames": <one frame or a stack>}`` plus an optional
``"session"`` id (the affinity token a previous response returned in its
``X-Stream-Session`` header — omit it to open a fresh session),
``"threshold"`` (per-session diff threshold; 0 = bit-exact) and
``"close_session"`` (drop the session after the last frame).  The response
is a *chunked* ``application/x-ndjson`` body: one JSON line per frame,
written as soon as that frame's outputs exist, each carrying the execution
mode (``full``/``incremental``/``cached``) and dirty-tile accounting.
Artifacts published before the streaming metadata schema (program schema
v3), or with non-streamable graphs, are rejected with a 400 and reason
``stream_unsupported``.

Overload and failure status codes: 429 = priority-class load shed or a
per-model concurrency budget exceeded (slow down), 503 = hard saturation /
open circuit breaker / worker crash / shutdown (retriable; carries
``Retry-After``), 504 = deadline exceeded.  See ``docs/SERVING.md`` for the
full contract and a curl-able quickstart.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.core.stream_plan import StreamUnsupported
from repro.serve.admission import AdmissionRejected
from repro.serve.batcher import DeadlineExceeded, QueueFull
from repro.serve.cluster.router import NoReplicas
from repro.serve.repository import ModelNotFound
from repro.serve.server import InferenceServer, ServerClosed
from repro.serve.streaming import UnknownSession
from repro.serve.workers import WorkerError

# Backoff hint attached to 503s that do not carry their own (QueueFull,
# worker crashes, shutdown): long enough to matter, short enough that a
# retrying client rediscovers a recovered server quickly.
DEFAULT_RETRY_AFTER_S = 1.0


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection.  A reply goes out as several
    # writes (headers, then body or chunks); with Nagle on, each write after
    # the first waits for the client's delayed ACK (~40 ms on Linux).
    disable_nagle_algorithm = True

    # The inference server is attached to the HTTP server object.
    @property
    def inference(self) -> InferenceServer:
        return self.server.inference  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep pytest/CI output clean; stats cover observability

    # -- plumbing ----------------------------------------------------------------
    def _send_json(self, payload, status: int = 200,
                   retry_after_s: Optional[float] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            # Retry-After is integer seconds; always advise at least 1 so
            # clients do not hot-loop on a momentary rejection.
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after_s))))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str,
               retry_after_s: Optional[float] = None,
               reason: Optional[str] = None) -> None:
        payload = {"error": message}
        if reason is not None:
            payload["reason"] = reason
        self._send_json(payload, status=status, retry_after_s=retry_after_s)

    def _route(self) -> Tuple[list, Optional[int]]:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        version = None
        if "version" in query:
            try:
                version = int(query["version"][0])
            except ValueError:
                raise ValueError(f"version must be an integer, got {query['version'][0]!r}")
        return parts, version

    # -- handlers ----------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            parts, version = self._route()
        except ValueError as exc:
            return self._error(400, str(exc))
        try:
            if parts == ["healthz"]:
                # Readiness-aware: open breakers and saturated queues report
                # degraded with a 503 so load balancers rotate away; the
                # payload names the unhealthy models and why.
                health = self.inference.health()
                if health["status"] == "ok":
                    return self._send_json(health)
                return self._send_json(
                    health, status=503, retry_after_s=DEFAULT_RETRY_AFTER_S
                )
            if parts == ["stats"]:
                # Server-wide stats: every live pipeline's snapshot, plus
                # the control plane (autoscaler decisions, rollout stages,
                # budgets) under the reserved "control_plane" key.
                snapshot = self.inference.snapshot()
                control = self.inference.control_plane()
                if control:
                    snapshot["control_plane"] = control
                return self._send_json(snapshot)
            if parts == ["v1", "models"]:
                return self._send_json({"models": self.inference.models()})
            if len(parts) == 3 and parts[:2] == ["v1", "models"]:
                return self._send_json(self.inference.metadata(parts[2], version))
            if len(parts) == 4 and parts[:2] == ["v1", "models"] and parts[3] == "stats":
                return self._send_json(self.inference.stats(parts[2], version))
        except ModelNotFound as exc:
            return self._error(404, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            return self._error(500, f"{type(exc).__name__}: {exc}")
        self._error(404, f"no route for GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # Drain the body unconditionally and first: on a keep-alive
        # connection, replying without reading Content-Length bytes leaves
        # them in rfile to be misparsed as the next request line.
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = self.rfile.read(length)
        except ValueError:
            self.close_connection = True  # unknown body length; cannot reuse
            return self._error(400, "Content-Length must be an integer")
        try:
            parts, version = self._route()
        except ValueError as exc:
            return self._error(400, str(exc))
        if not (
            len(parts) == 4
            and parts[:2] == ["v1", "models"]
            and parts[3] in ("predict", "stream")
        ):
            return self._error(404, f"no route for POST {self.path}")
        name = parts[2]
        if parts[3] == "stream":
            return self._post_stream(name, version, body)
        try:
            payload = json.loads(body or b"{}")
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
            inputs = np.asarray(payload["inputs"], dtype=np.float64)
            if "version" in payload and version is None:
                version = int(payload["version"])
            # Deadline: body "timeout_ms" wins over the X-Timeout-Ms header;
            # priority class: body "priority" over X-Request-Priority.
            timeout_ms = payload.get("timeout_ms", self.headers.get("X-Timeout-Ms"))
            if timeout_ms is not None:
                timeout_ms = float(timeout_ms)
                if timeout_ms <= 0:
                    raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
            priority = payload.get("priority", self.headers.get("X-Request-Priority"))
            if priority is not None and not isinstance(priority, str):
                raise ValueError(f"priority must be a string, got {priority!r}")
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            return self._error(
                400, f"body must be a JSON object with an 'inputs' array: {exc}"
            )
        try:
            # One pipeline resolution serves the whole request (single
            # sample, or batch rows coalescing in the dynamic-batching
            # window) and names the version that actually served it.
            served_version, outputs, batched = self.inference.predict_request(
                name, inputs, version, priority=priority, timeout_ms=timeout_ms
            )
        except ModelNotFound as exc:
            return self._error(404, str(exc))
        except AdmissionRejected as exc:
            # Load shed before queueing: 429 for priority-class sheds (the
            # client should slow down), 503 for hard saturation and open
            # breakers — both with a Retry-After backoff hint.
            return self._error(
                exc.http_status, str(exc),
                retry_after_s=exc.retry_after_s, reason=exc.reason,
            )
        except QueueFull as exc:
            return self._error(
                503, str(exc),
                retry_after_s=DEFAULT_RETRY_AFTER_S, reason="queue_full",
            )
        except DeadlineExceeded as exc:
            return self._error(504, str(exc), reason="deadline_exceeded")
        except ServerClosed as exc:
            return self._error(
                503, str(exc),
                retry_after_s=DEFAULT_RETRY_AFTER_S, reason="server_closed",
            )
        except NoReplicas as exc:
            # Cluster mode: every replica is currently dead.  Retriable —
            # heartbeats keep probing and a restarted replica rejoins, so
            # clients should back off and try again (NoReplicas subclasses
            # NoLiveWorkers, so this arm must come before WorkerError).
            return self._error(
                503, str(exc),
                retry_after_s=DEFAULT_RETRY_AFTER_S, reason="no_replicas",
            )
        except WorkerError as exc:
            # Worker crashes and pool exhaustion are retriable server-side
            # failures, not generic 500s: clients should back off and retry
            # (the pool respawns workers; the breaker guards the meantime).
            return self._error(
                503, f"{type(exc).__name__}: {exc}",
                retry_after_s=DEFAULT_RETRY_AFTER_S, reason="worker_failure",
            )
        except ValueError as exc:
            return self._error(400, str(exc))
        except Exception as exc:
            return self._error(500, f"{type(exc).__name__}: {exc}")
        self._send_json(
            {
                "model": name,
                "version": served_version,
                "batched": batched,
                "outputs": outputs.tolist(),
            }
        )

    # -- streaming ---------------------------------------------------------------
    def _write_chunk(self, data: bytes) -> None:
        """One HTTP/1.1 chunk (hand-framed: BaseHTTPRequestHandler offers no
        chunked writer).  An empty payload writes the terminal chunk."""
        if data:
            self.wfile.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        else:
            self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    def _post_stream(self, name: str, version: Optional[int], body: bytes) -> None:
        """POST /v1/models/<name>/stream — chunked newline-delimited JSON.

        Each frame's result is written as its own chunk the moment it
        computes, so a client sees frame 1's outputs while frame 2 still
        executes.  Session errors *before* the first chunk map to status
        codes (400 ``stream_unsupported``, 404 ``unknown_session``, …); a
        failure mid-stream can only be reported in-band — a final JSON line
        with an ``"error"`` key — because the 200 header is already gone.
        """
        try:
            payload = json.loads(body or b"{}")
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
            frames = np.asarray(payload["frames"], dtype=np.float64)
            if "version" in payload and version is None:
                version = int(payload["version"])
            session = payload.get("session")
            if session is not None and not isinstance(session, str):
                raise ValueError(f"session must be a string, got {session!r}")
            threshold = payload.get("threshold")
            if threshold is not None:
                threshold = float(threshold)
            close_session = bool(payload.get("close_session", False))
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            return self._error(
                400, f"body must be a JSON object with a 'frames' array: {exc}"
            )
        try:
            served_version, sid, results = self.inference.stream_request(
                name, frames, version, session=session,
                threshold=threshold, close_session=close_session,
            )
        except ModelNotFound as exc:
            return self._error(404, str(exc))
        except StreamUnsupported as exc:
            # The capability gate: pre-schema artifacts and non-streamable
            # graphs are a client-fixable condition, not a server fault.
            return self._error(400, str(exc), reason=exc.reason)
        except UnknownSession as exc:
            return self._error(404, str(exc), reason="unknown_session")
        except ServerClosed as exc:
            return self._error(
                503, str(exc),
                retry_after_s=DEFAULT_RETRY_AFTER_S, reason="server_closed",
            )
        except WorkerError as exc:
            return self._error(
                503, f"{type(exc).__name__}: {exc}",
                retry_after_s=DEFAULT_RETRY_AFTER_S, reason="worker_failure",
            )
        except ValueError as exc:
            return self._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            return self._error(500, f"{type(exc).__name__}: {exc}")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Stream-Session", sid)
        self.send_header("X-Model-Version", str(served_version))
        self.end_headers()
        try:
            for index, result in enumerate(results):
                line = dict(result, frame=index, outputs=result["outputs"].tolist())
                self._write_chunk((json.dumps(line) + "\n").encode())
        except Exception as exc:
            # Mid-stream failure: the fault path already reset/evicted the
            # session; report in-band and drop the (now ambiguous) connection.
            self.close_connection = True
            try:
                line = {
                    "error": f"{type(exc).__name__}: {exc}",
                    "reason": "stream_failed",
                    "session": sid,
                }
                self._write_chunk((json.dumps(line) + "\n").encode())
            except OSError:  # pragma: no cover - client already gone
                return
        self._write_chunk(b"")


class HttpFrontEnd:
    """A running HTTP front end; ``close()`` (or the context manager) stops it."""

    def __init__(self, inference: InferenceServer, host: str = "127.0.0.1", port: int = 0):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.inference = inference  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound (port 0 picks an ephemeral one)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()

    def __enter__(self) -> "HttpFrontEnd":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def serve_http(
    inference: InferenceServer, host: str = "127.0.0.1", port: int = 8080
) -> HttpFrontEnd:
    """Start the HTTP front end on (host, port); port 0 binds an ephemeral port.

    Returns the running :class:`HttpFrontEnd` (it serves from a daemon
    thread; call ``close()`` to stop).
    """
    return HttpFrontEnd(inference, host=host, port=port)
