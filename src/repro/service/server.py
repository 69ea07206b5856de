"""Simulation-as-a-service HTTP daemon on stdlib asyncio — no dependencies.

A deliberately small, hand-rolled HTTP/1.1 server (``asyncio.start_server``;
the environment bakes no aiohttp/FastAPI and the service must not grow hard
runtime deps) exposing the :class:`~repro.service.queue.JobQueue` core:

====== ================================= ==================================
Method Path                              Purpose
====== ================================= ==================================
POST   ``/v1/sweeps``                    submit a job list or Experiment
GET    ``/v1/sweeps/<id>``               sweep status (per-job states)
GET    ``/v1/sweeps/<id>/events``        Server-Sent Events progress stream
DELETE ``/v1/sweeps/<id>``               cancel the sweep (queued jobs die)
GET    ``/v1/jobs/<hash>``               job status + full result when done
GET    ``/v1/stats``                     queue + store + fabric health
GET    ``/v1/metrics``                   Prometheus text exposition
GET    ``/v1/sweeps/<id>/trace``         collected tracing spans (JSON)
GET    ``/v1/healthz``                   liveness probe (no auth)
POST   ``/v1/fabric/lease``              worker asks for leased jobs
POST   ``/v1/fabric/leases/<id>/heartbeat``  renew a lease's TTL
POST   ``/v1/fabric/leases/<id>/complete``   upload a result / failure
GET    ``/v1/fabric``                    fabric health (same as in stats)
====== ================================= ==================================

The ``/v1/fabric/*`` routes exist only when the daemon was started with a
:class:`~repro.service.fabric.FabricCoordinator` (``repro serve
--fabric``); otherwise they answer 404.  An expired or unknown lease gets
a 410 Gone on heartbeat, telling the worker to abandon that job.

Authentication is optional static api-key auth: when a token is configured
(constructor argument or ``REPRO_SERVICE_TOKEN``), every endpoint except
``/v1/healthz`` requires ``Authorization: Bearer <token>`` or an
``X-Api-Key: <token>`` header.

The SSE stream replays the sweep's event history from ``?from=<index>``
(default 0) and then follows live, with ``id:`` lines carrying the event
index so a dropped client can resume where it left off; a comment
heartbeat (``: keepalive``) flows every :data:`HEARTBEAT_SECONDS` so
proxies do not reap idle connections.  A stream has a connection of its
own, which ends with it; the response head and every event already in the
log go out in one write.

Every other answer keeps an HTTP/1.1 connection open for the client's next
request: a fabric worker leases, renews and uploads on every job, and a
closed-loop client submits a sweep per request, so a fresh TCP connection
per request costs more CPU than the request itself.  Requests on one
connection are served one at a time; an idle connection is closed after
:data:`KEEPALIVE_IDLE_SECONDS`.  ``Connection: close``, HTTP/1.0 clients,
malformed requests and oversized bodies end the connection after the
answer.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
from typing import Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import __version__, obs
from repro.service.queue import JobQueue, QueueError
from repro.service.spec import SpecError, jobs_from_payload

#: Environment variable holding the static api key.
TOKEN_ENV_VAR = "REPRO_SERVICE_TOKEN"

#: Environment variable a client uses to find the daemon.
URL_ENV_VAR = "REPRO_SERVICE_URL"

#: Default bind address; loopback on purpose — put a real reverse proxy in
#: front for anything wider.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Seconds between SSE comment heartbeats on an idle stream.
HEARTBEAT_SECONDS = 15.0

#: Seconds a kept-alive connection may sit idle before the daemon closes it.
KEEPALIVE_IDLE_SECONDS = 15.0

#: Seconds :meth:`ReproService.close` gives requests in progress (event
#: streams, too) to end on their own before it cancels them.
CLOSE_GRACE_SECONDS = 1.0

#: Request size limits (defensive; this is a service, not a file server).
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 8 * 1024 * 1024

_TOKEN_RE = re.compile(r"^Bearer\s+(?P<token>\S+)$", re.IGNORECASE)

#: Compact JSON through the C encoder (an ``indent`` forces the pure-Python
#: one); sorted keys keep answers byte-stable.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

_OBS_CONNECTIONS = obs.counter("repro_http_connections_total",
                               "HTTP connections accepted by the daemon")
_OBS_REQUESTS = obs.counter("repro_http_requests_total",
                            "HTTP requests answered by the daemon")

_SSE_HEAD = (b"HTTP/1.1 200 OK\r\n"
             b"Content-Type: text/event-stream; charset=utf-8\r\n"
             b"Cache-Control: no-cache\r\nConnection: close\r\n\r\n")

_JSON_TYPE = "application/json; charset=utf-8"
_TEXT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: An answer: status, content type and body.
Response = Tuple[int, str, bytes]


class HttpError(Exception):
    """An error response with a status code and JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            401: "Unauthorized", 404: "Not Found",
            405: "Method Not Allowed", 410: "Gone",
            413: "Payload Too Large", 500: "Internal Server Error"}


def _json_response(status: int, payload) -> Response:
    return status, _JSON_TYPE, (_JSON.encode(payload) + "\n").encode("utf-8")


def _hang_up(writer: asyncio.StreamWriter) -> None:
    """Close a connection for the client too.  Shutting the socket down,
    not just closing this process's fd, matters: a pool worker forked
    meanwhile holds a copy of it."""
    try:
        writer.write_eof()
    except OSError:
        pass
    writer.close()


class ReproService:
    """The daemon: one :class:`JobQueue` behind the HTTP surface.

    ``port=0`` binds an ephemeral port (tests); the bound port is on
    :attr:`port` after :meth:`start`.  ``stats_extra`` is an optional
    zero-argument callable merged into ``/v1/stats`` — the CLI passes the
    doctor report so ops tooling gets native-engine and store diagnostics
    from the same endpoint.
    """

    def __init__(self, queue: JobQueue, host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT, token: Optional[str] = None,
                 stats_extra=None, fabric=None) -> None:
        self.queue = queue
        self.host = host
        self.port = port
        self.token = (token if token is not None
                      else os.environ.get(TOKEN_ENV_VAR, "").strip() or None)
        self.stats_extra = stats_extra
        #: Optional :class:`~repro.service.fabric.FabricCoordinator`; when
        #: set, the ``/v1/fabric/*`` routes come alive and its lifecycle is
        #: tied to the server's.
        self.fabric = fabric
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        #: Every open connection's handler, and the connections waiting
        #: for their next request (closed at once by :meth:`close`).
        self._connections: Set[asyncio.Task] = set()
        self._idle: Set[asyncio.StreamWriter] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "ReproService":
        """Start the queue (if needed) and bind the listening socket."""
        if self.queue._loop is None:
            await self.queue.start()
        if self.fabric is not None and self.fabric._reaper is None:
            await self.fabric.start()
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop listening, close idle connections, then the queue; give
        requests in progress :data:`CLOSE_GRACE_SECONDS` to end."""
        self._closing = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for writer in list(self._idle):
            _hang_up(writer)
        if self.fabric is not None:
            await self.fabric.close()
        await self.queue.close()  # open event streams see it and end
        if self._connections:
            _done, late = await asyncio.wait(self._connections,
                                             timeout=CLOSE_GRACE_SECONDS)
            for task in late:
                task.cancel()
            await asyncio.gather(*late, return_exceptions=True)
        if server is not None:
            await server.wait_closed()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI wraps this with signal handling)."""
        if self._server is None:
            await self.start()
        # Not Server.serve_forever(): on cancellation it waits for every
        # connection to close, kept-alive idle ones included.
        await asyncio.get_running_loop().create_future()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection: its requests one at a time, until the
        client or the answer ends it or it idles out."""
        task = asyncio.current_task()
        self._connections.add(task)
        _OBS_CONNECTIONS.inc()
        loop = asyncio.get_running_loop()
        try:
            while not self._closing:
                self._idle.add(writer)
                timer = loop.call_later(KEEPALIVE_IDLE_SECONDS, _hang_up,
                                        writer)
                try:
                    request_line = await reader.readline()
                finally:
                    timer.cancel()
                    self._idle.discard(writer)
                if not request_line:
                    return
                _OBS_REQUESTS.inc()
                if not await self._answer(request_line, reader, writer):
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(task)
            _hang_up(writer)
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _answer(self, request_line: bytes,
                      reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> bool:
        """Read and answer one request; returns whether the connection
        stays open for the next one."""
        try:
            method, target, version, headers, body = \
                await self._read_request(request_line, reader)
        except HttpError as exc:
            # The rest of the stream cannot be trusted to frame a request.
            await self._respond(writer, _json_response(
                exc.status, {"error": exc.message}), keep_alive=False)
            return False
        tokens = {token.strip() for token in
                  headers.get("connection", "").lower().split(",")}
        # A Transfer-Encoding body is never read: it must not be taken for
        # the next request.
        keep_alive = (version == "HTTP/1.1" and "close" not in tokens
                      and "transfer-encoding" not in headers)
        try:
            response = await self._dispatch(writer, method, target, headers,
                                            body)
        except HttpError as exc:
            response = _json_response(exc.status, {"error": exc.message})
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # noqa: BLE001 - must answer something
            response = _json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"})
        if response is None:  # an event stream, which ends its connection
            return False
        await self._respond(writer, response, keep_alive)
        return keep_alive

    async def _read_request(self, request_line: bytes,
                            reader: asyncio.StreamReader
                            ) -> Tuple[str, str, str, Dict[str, str], bytes]:
        if len(request_line) > MAX_REQUEST_LINE:
            raise HttpError(400, "request line too long")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(400, "malformed request line")
        method, target, version = parts[0].upper(), parts[1], parts[2]
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise HttpError(400, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            length = int(length)
        except ValueError:
            raise HttpError(400, "invalid Content-Length") from None
        if length < 0:
            raise HttpError(400, "invalid Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, version, headers, body

    def _check_auth(self, headers: Dict[str, str]) -> None:
        if self.token is None:
            return
        supplied = None
        match = _TOKEN_RE.match(headers.get("authorization", ""))
        if match:
            supplied = match.group("token")
        supplied = supplied or headers.get("x-api-key") or None
        if supplied != self.token:
            raise HttpError(401, "missing or invalid api key (send "
                                 "'Authorization: Bearer <token>' or "
                                 "'X-Api-Key: <token>')")

    # -- routing ------------------------------------------------------------

    async def _dispatch(self, writer, method: str, target: str,
                        headers: Dict[str, str], body: bytes
                        ) -> Optional[Response]:
        """Route one request to its answer (``None``: an event stream,
        already written)."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        if path == "/v1/healthz":
            return _json_response(200, {"ok": True, "version": __version__})
        self._check_auth(headers)
        if path == "/v1/sweeps" and method == "POST":
            return await self._post_sweeps(body)
        if path == "/v1/stats" and method == "GET":
            return self._get_stats()
        if path == "/v1/metrics" and method == "GET":
            return 200, _TEXT_TYPE, obs.render_prometheus().encode("utf-8")
        if path == "/v1/fabric" and method == "GET":
            return _json_response(200, self._require_fabric().stats())
        if path == "/v1/fabric/lease" and method == "POST":
            return self._post_lease(body)
        if path.startswith("/v1/fabric/leases/") and method == "POST":
            rest = path[len("/v1/fabric/leases/"):]
            lease_id, _sep, action = rest.partition("/")
            if action == "heartbeat":
                return self._post_heartbeat(lease_id)
            if action == "complete":
                return self._post_complete(lease_id, body)
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._get_job(path[len("/v1/jobs/"):])
        if path.startswith("/v1/sweeps/"):
            rest = path[len("/v1/sweeps/"):]
            if rest.endswith("/events") and method == "GET":
                await self._stream_events(writer, rest[:-len("/events")],
                                          parse_qs(split.query))
                return None
            if rest.endswith("/trace") and method == "GET":
                return self._get_trace(rest[:-len("/trace")])
            if "/" not in rest and method == "GET":
                return self._get_sweep(rest)
            if "/" not in rest and method == "DELETE":
                return self._delete_sweep(rest)
        raise HttpError(404, f"no route for {method} {path}")

    # -- fabric endpoints ---------------------------------------------------

    def _require_fabric(self):
        if self.fabric is None:
            raise HttpError(404, "fabric mode is not enabled on this daemon "
                                 "(start it with 'repro serve --fabric')")
        return self.fabric

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            raise HttpError(400, "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    def _post_lease(self, body: bytes) -> Response:
        from repro.service.fabric import FabricError

        fabric = self._require_fabric()
        payload = self._json_body(body)
        worker = payload.get("worker")
        if not isinstance(worker, str) or not worker:
            raise HttpError(400, "a lease request needs a 'worker' id "
                                 "string")
        try:
            capacity = int(payload.get("capacity", 1))
        except (TypeError, ValueError):
            raise HttpError(400, "'capacity' must be an integer") from None
        try:
            grants = fabric.grant(worker, capacity=capacity)
        except FabricError as exc:
            raise HttpError(400, str(exc)) from None
        return _json_response(200, {"worker": worker, "ttl": fabric.ttl,
                                    "grants": grants})

    def _post_heartbeat(self, lease_id: str) -> Response:
        receipt = self._require_fabric().heartbeat(lease_id)
        if receipt.get("ok"):
            return _json_response(200, receipt)
        return _json_response(410, dict(
            receipt, error=receipt.get("reason", "lease gone")))

    def _post_complete(self, lease_id: str, body: bytes) -> Response:
        from repro.service.fabric import FabricError

        fabric = self._require_fabric()
        payload = self._json_body(body)
        try:
            receipt = fabric.complete(lease_id, payload)
        except FabricError as exc:
            raise HttpError(400, str(exc)) from None
        return _json_response(200, receipt)

    # -- endpoints ----------------------------------------------------------

    async def _post_sweeps(self, body: bytes) -> Response:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            raise HttpError(400, "request body is not valid JSON") from None
        try:
            jobs = jobs_from_payload(payload)
        except SpecError as exc:
            raise HttpError(400, str(exc)) from None
        try:
            sweep = await self.queue.submit(jobs)
        except QueueError as exc:
            raise HttpError(400, str(exc)) from None
        return _json_response(202, {
            "sweep": sweep.id,
            "jobs": [self.queue.job_status(job_hash)
                     for job_hash in sweep.job_hashes],
            "cache_hits": sweep.cache_hits,
            "coalesced": sweep.coalesced,
            "events_url": f"/v1/sweeps/{sweep.id}/events",
        })

    def _get_job(self, job_hash: str) -> Response:
        try:
            payload = self.queue.job_status(job_hash, include_result=True)
        except KeyError:
            raise HttpError(404, f"unknown job hash {job_hash!r}") from None
        return _json_response(200, payload)

    def _get_sweep(self, sweep_id: str) -> Response:
        try:
            payload = self.queue.sweep_status(sweep_id)
        except KeyError:
            raise HttpError(404, f"unknown sweep {sweep_id!r}") from None
        return _json_response(200, payload)

    def _delete_sweep(self, sweep_id: str) -> Response:
        try:
            payload = self.queue.cancel(sweep_id)
        except KeyError:
            raise HttpError(404, f"unknown sweep {sweep_id!r}") from None
        return _json_response(200, payload)

    def _get_trace(self, sweep_id: str) -> Response:
        try:
            payload = self.queue.trace_spans(sweep_id)
        except KeyError:
            raise HttpError(404, f"unknown sweep {sweep_id!r}") from None
        return _json_response(200, payload)

    def _get_stats(self) -> Response:
        payload: Dict[str, object] = {
            "version": __version__,
            "queue": self.queue.stats(),
            "store": (self.queue.store.stats()
                      if self.queue.store is not None else None),
            "metrics": obs.snapshot(),
        }
        if self.fabric is not None:
            payload["fabric"] = self.fabric.stats()
        if self.stats_extra is not None:
            try:
                payload.update(self.stats_extra())
            except Exception as exc:  # noqa: BLE001 - stats must not 500
                payload["stats_extra_error"] = f"{type(exc).__name__}: {exc}"
        return _json_response(200, payload)

    async def _stream_events(self, writer, sweep_id: str,
                             query: Dict[str, list]) -> None:
        try:
            from_index = int(query.get("from", ["0"])[0])
        except ValueError:
            raise HttpError(400, "'from' must be an integer") from None
        # subscribe() is an async generator: its unknown-sweep KeyError only
        # surfaces at the first iteration, after headers went out.  Look the
        # sweep up eagerly so unknown sweeps get a clean 404.
        try:
            log = self.queue._get_sweep(sweep_id).events
        except KeyError:
            raise HttpError(404, f"unknown sweep {sweep_id!r}") from None
        agen = self.queue.subscribe(sweep_id,
                                    from_index=from_index).__aiter__()
        cursor = max(0, from_index)  # the index the stream yields next
        frames = [_SSE_HEAD]
        next_event = None
        try:
            while True:
                try:
                    if cursor < len(log):
                        # Already logged: the stream yields it at once, so
                        # it joins the frames written together.
                        index, event = await agen.__anext__()
                    else:
                        writer.write(b"".join(frames))
                        frames = []
                        await writer.drain()
                        next_event = asyncio.ensure_future(agen.__anext__())
                        index, event = await self._next_live(writer,
                                                             next_event)
                except StopAsyncIteration:
                    break
                cursor = index + 1
                frames.append(
                    f"id: {index}\n"
                    f"event: {event.get('event', 'message')}\n"
                    f"data: {json.dumps(event, sort_keys=True)}\n\n"
                    .encode("utf-8"))
                if event.get("event") == "sweep_done":
                    break
            writer.write(b"".join(frames))
            await writer.drain()
        finally:
            if next_event is not None and not next_event.done():
                next_event.cancel()
            await agen.aclose()

    @staticmethod
    async def _next_live(writer, next_event: asyncio.Future):
        """Wait for the stream's next event, sending a comment heartbeat on
        each :data:`HEARTBEAT_SECONDS` of silence so the connection (and
        any proxy on the way) stays alive."""
        while True:
            try:
                return await asyncio.wait_for(asyncio.shield(next_event),
                                              HEARTBEAT_SECONDS)
            except asyncio.TimeoutError:
                writer.write(b": keepalive\n\n")
                await writer.drain()

    # -- response helpers ---------------------------------------------------

    @staticmethod
    async def _respond(writer, response: Response, keep_alive: bool) -> None:
        """Write an answer, head and body in one send."""
        status, content_type, body = response
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
