"""Persistent front-ends around :class:`RecommenderService`.

Two transports, one protocol:

* **JSONL over stdio** — one JSON object per line in, one per line out.
  A line is either a recommendation request (see
  :class:`~repro.service.envelopes.RecommendRequest`) or a control command
  ``{"cmd": "stats" | "deployments" | "metrics" | "shutdown"}`` (``stats``
  embeds the metrics-registry snapshot; ``metrics`` returns it alone).
  Malformed lines get an ``{"error": ...}`` line back and the loop keeps
  serving; EOF or ``shutdown`` drains the batchers and exits cleanly.  This
  is what ``repro serve --loop`` runs.
* **HTTP** — a :mod:`http.server`-based threaded server (no third-party web
  framework): ``POST /recommend`` (single request object or
  ``{"requests": [...]}`` for a coalesced burst), ``GET /stats``,
  ``GET /deployments``, ``GET /metrics`` (Prometheus text exposition) and
  ``GET /healthz`` (uptime + per-deployment name/version, so orchestrators
  can see a hot-swap complete).  This is what ``repro serve --http PORT``
  runs.  The threaded server is what gives the dynamic batcher concurrent
  callers to coalesce.  With ``verbose`` a structured access log (one JSON
  object per request: method, path, status, duration) goes to *stderr* —
  stdout stays protocol-pure, mirroring the ``--loop`` contract.
"""

from __future__ import annotations

import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, TextIO

from ..resilience import DeadlineExceeded, OverloadError
from ..shard import ShardTimeout
from .envelopes import RequestError
from .service import RecommenderService

#: control verbs understood by the JSONL loop
JSONL_COMMANDS = ("stats", "deployments", "metrics", "shutdown")

#: Content-Type of the Prometheus text exposition format
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _handle_command(service: RecommenderService, command: str) -> Dict[str, Any]:
    if command == "stats":
        return {"stats": service.stats()}
    if command == "deployments":
        return {"deployments": service.registry.describe()}
    if command == "metrics":
        return {"metrics": service.metrics_snapshot()}
    raise RequestError(
        f"unknown command {command!r} (expected one of {', '.join(JSONL_COMMANDS)})"
    )


def serve_jsonl(service: RecommenderService,
                input_stream: Optional[TextIO] = None,
                output_stream: Optional[TextIO] = None,
                default_deployment: Optional[str] = None) -> int:
    """Run the JSONL request loop until EOF or a ``shutdown`` command.

    ``default_deployment`` routes requests that name no deployment (on top of
    the registry's own default).  Returns a process exit code (always 0: a
    malformed *request* is the client's problem and answered in-band).
    """
    input_stream = input_stream if input_stream is not None else sys.stdin
    output_stream = output_stream if output_stream is not None else sys.stdout

    def emit(payload: Dict[str, Any]) -> None:
        output_stream.write(json.dumps(payload) + "\n")
        output_stream.flush()

    for line in input_stream:
        line = line.strip()
        if not line:
            continue
        request_id = None
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise RequestError("each line must be a JSON object")
            if "cmd" in payload:
                command = payload["cmd"]
                if command == "shutdown":
                    emit({"ok": True, "shutdown": True})
                    break
                emit(_handle_command(service, command))
                continue
            request_id = payload.get("request_id")
            if default_deployment is not None and "deployment" not in payload:
                payload = dict(payload, deployment=default_deployment)
            response = service.recommend(payload)
            emit(response.to_dict())
        except json.JSONDecodeError as error:
            emit({"error": f"invalid JSON: {error.msg}", "request_id": request_id})
        except RequestError as error:
            emit({"error": str(error), "request_id": request_id})
        except OverloadError as error:
            # in-band analogue of HTTP 429: typed, with a backoff hint
            emit({"error": str(error), "overloaded": True,
                  "retry_after_s": error.retry_after_s,
                  "request_id": request_id})
        except (DeadlineExceeded, ShardTimeout) as error:
            # in-band analogue of HTTP 504
            emit({"error": str(error), "deadline_exceeded": True,
                  "request_id": request_id})
        except Exception as error:  # noqa: BLE001 — the loop must survive
            emit({"error": f"internal error: {error}",
                  "internal": True, "request_id": request_id})
    service.close()
    return 0


class _ServiceHTTPHandler(BaseHTTPRequestHandler):
    """Request handler bound to a service via the server instance."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # The stdlib's free-form log lines are replaced by the structured
        # access log below (one JSON object per request, stderr only).
        pass

    def _access_log(self, status: int) -> None:
        """One structured access-log line to stderr (never stdout — the
        JSONL protocol channel must stay pure)."""
        if not self.server.verbose:
            return
        started = getattr(self, "_request_started", None)
        duration_ms = ((time.perf_counter() - started) * 1000.0
                       if started is not None else 0.0)
        entry = {
            "method": self.command,
            "path": self.path,
            "status": int(status),
            "duration_ms": round(duration_ms, 3),
        }
        print(json.dumps(entry, sort_keys=True), file=sys.stderr, flush=True)

    def _send_body(self, body: bytes, content_type: str, status: int,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._access_log(status)

    def _send_json(self, payload: Dict[str, Any], status: int = 200,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send_body(json.dumps(payload).encode("utf-8"),
                        "application/json", status, headers=headers)

    def _send_text(self, text: str, content_type: str,
                   status: int = 200) -> None:
        self._send_body(text.encode("utf-8"), content_type, status)

    def _read_body(self) -> bytes:
        """Consume the declared request body, so the next request on a
        keep-alive connection starts where this one ends.  A Content-Length
        that is not a non-negative integer leaves the framing unknown: the
        connection is closed after the 400."""
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise RequestError(f"invalid Content-Length: {declared!r}")
        return self.rfile.read(length)

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        if not body:
            raise RequestError("request body must be a JSON object")
        try:
            return json.loads(body.decode("utf-8"))
        except UnicodeDecodeError:
            raise RequestError("request body is not valid UTF-8") from None
        except json.JSONDecodeError as error:
            raise RequestError(f"invalid JSON: {error.msg}") from None

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._request_started = time.perf_counter()
        try:
            self._route_get()
        except Exception as error:  # noqa: BLE001 — never a raw traceback
            self._send_json({"error": f"internal error: {error}"}, status=500)

    def _route_get(self) -> None:
        service = self.server.service
        if self.path == "/stats":
            self._send_json(service.stats())
        elif self.path == "/deployments":
            self._send_json({"deployments": service.registry.describe()})
        elif self.path == "/metrics":
            text = service.render_metrics()
            if text is None:
                self._send_json({"error": "metrics are disabled on this "
                                          "service (metrics=False)"},
                                status=404)
            else:
                self._send_text(text, METRICS_CONTENT_TYPE)
        elif self.path == "/livez":
            # liveness: the process answers — period.  A replica serving
            # degraded (breaker open) is alive; restarting it would only
            # lose the warmed fallback.  Readiness is the probe that drops.
            self._send_json({"ok": True, "uptime_s": service.uptime_s})
        elif self.path == "/readyz":
            report = service.readiness()
            report["ok"] = report["ready"]
            self._send_json(report, status=200 if report["ready"] else 503)
        elif self.path in ("/", "/healthz"):
            # `ok` and the deployment *count* are the PR-4 contract keys;
            # name/version/uptime let an orchestrator watch a hot-swap land.
            self._send_json({
                "ok": True,
                "deployments": len(service.registry),
                "uptime_s": service.uptime_s,
                "deployment_versions": [
                    {"name": deployment.name, "version": deployment.version}
                    for deployment in service.registry.list()
                ],
            })
        else:
            self._send_json({"error": f"unknown path {self.path!r}"}, status=404)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._request_started = time.perf_counter()
        service = self.server.service
        try:
            body = self._read_body()
            if self.path != "/recommend":
                self._send_json({"error": f"unknown path {self.path!r}"},
                                status=404)
                return
            payload = self._parse_json(body)
            if isinstance(payload, dict) and "requests" in payload:
                responses = service.recommend_many(payload["requests"])
                self._send_json(
                    {"responses": [response.to_dict() for response in responses]}
                )
            else:
                self._send_json(service.recommend(payload).to_dict())
        except RequestError as error:
            self._send_json({"error": str(error)}, status=400)
        except OverloadError as error:
            # shed by admission control: tell the client when to come back
            self._send_json(
                {"error": str(error), "overloaded": True},
                status=429,
                headers={"Retry-After":
                         str(max(1, int(round(error.retry_after_s))))})
        except (DeadlineExceeded, ShardTimeout) as error:
            self._send_json({"error": str(error), "deadline_exceeded": True},
                            status=504)
        except Exception as error:  # noqa: BLE001 — never a raw traceback
            self._send_json({"error": f"internal error: {error}"}, status=500)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server wrapping one :class:`RecommenderService`.

    Threading matters: it is what turns concurrent HTTP clients into
    concurrent ``recommend()`` callers for the dynamic batcher to coalesce.
    """

    daemon_threads = True

    def __init__(self, service: RecommenderService, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False):
        super().__init__((host, port), _ServiceHTTPHandler)
        self.service = service
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_http(service: RecommenderService, port: int,
               host: str = "127.0.0.1", verbose: bool = False) -> int:
    """Run the HTTP front-end until interrupted; drains batchers on exit.

    ``verbose`` turns on the structured access log (one JSON object per
    request to stderr: method, path, status, duration_ms).
    """
    server = ServiceHTTPServer(service, host=host, port=port, verbose=verbose)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0
