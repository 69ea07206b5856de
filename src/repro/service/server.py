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
proxies do not reap idle connections.  Connections are single-request
(``Connection: close``) — sweeps are submitted once and then streamed, so
keep-alive would buy nothing for the cost of pipelining edge cases.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
from typing import Dict, Optional, Tuple
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

#: Request size limits (defensive; this is a service, not a file server).
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 8 * 1024 * 1024

_TOKEN_RE = re.compile(r"^Bearer\s+(?P<token>\S+)$", re.IGNORECASE)


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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.fabric is not None:
            await self.fabric.close()
        await self.queue.close()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI wraps this with signal handling)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, target, headers, body = await self._read_request(
                    reader)
            except HttpError as exc:
                await self._send_json(writer, exc.status,
                                      {"error": exc.message})
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            try:
                await self._dispatch(writer, method, target, headers, body)
            except HttpError as exc:
                await self._send_json(writer, exc.status,
                                      {"error": exc.message})
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # noqa: BLE001 - must answer something
                await self._send_json(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"})
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                # Shut the socket down, not just this process's fd: a pool
                # worker forked meanwhile holds a copy of it.
                writer.write_eof()
            except OSError:
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("client went away")
        if len(request_line) > MAX_REQUEST_LINE:
            raise HttpError(400, "request line too long")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
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
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

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
                        headers: Dict[str, str], body: bytes) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/v1/healthz":
            await self._send_json(writer, 200, {"ok": True,
                                                "version": __version__})
            return
        self._check_auth(headers)
        if path == "/v1/sweeps" and method == "POST":
            await self._post_sweeps(writer, body)
        elif path == "/v1/stats" and method == "GET":
            await self._get_stats(writer)
        elif path == "/v1/metrics" and method == "GET":
            await self._send_text(writer, 200, obs.render_prometheus())
        elif path == "/v1/fabric" and method == "GET":
            await self._send_json(writer, 200, self._require_fabric().stats())
        elif path == "/v1/fabric/lease" and method == "POST":
            await self._post_lease(writer, body)
        elif path.startswith("/v1/fabric/leases/") and method == "POST":
            rest = path[len("/v1/fabric/leases/"):]
            lease_id, _sep, action = rest.partition("/")
            if action == "heartbeat":
                await self._post_heartbeat(writer, lease_id)
            elif action == "complete":
                await self._post_complete(writer, lease_id, body)
            else:
                raise HttpError(404, f"no route for {method} {path}")
        elif path.startswith("/v1/jobs/") and method == "GET":
            await self._get_job(writer, path[len("/v1/jobs/"):])
        elif path.startswith("/v1/sweeps/"):
            rest = path[len("/v1/sweeps/"):]
            if rest.endswith("/events") and method == "GET":
                await self._stream_events(writer, rest[:-len("/events")],
                                          query)
            elif rest.endswith("/trace") and method == "GET":
                await self._get_trace(writer, rest[:-len("/trace")])
            elif "/" not in rest and method == "GET":
                await self._get_sweep(writer, rest)
            elif "/" not in rest and method == "DELETE":
                await self._delete_sweep(writer, rest)
            else:
                raise HttpError(404, f"no route for {method} {path}")
        else:
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

    async def _post_lease(self, writer, body: bytes) -> None:
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
        await self._send_json(writer, 200, {"worker": worker,
                                            "ttl": fabric.ttl,
                                            "grants": grants})

    async def _post_heartbeat(self, writer, lease_id: str) -> None:
        fabric = self._require_fabric()
        receipt = fabric.heartbeat(lease_id)
        if receipt.get("ok"):
            await self._send_json(writer, 200, receipt)
        else:
            await self._send_json(
                writer, 410, dict(receipt,
                                  error=receipt.get("reason", "lease gone")))

    async def _post_complete(self, writer, lease_id: str,
                             body: bytes) -> None:
        from repro.service.fabric import FabricError

        fabric = self._require_fabric()
        payload = self._json_body(body)
        try:
            receipt = fabric.complete(lease_id, payload)
        except FabricError as exc:
            raise HttpError(400, str(exc)) from None
        await self._send_json(writer, 200, receipt)

    # -- endpoints ----------------------------------------------------------

    async def _post_sweeps(self, writer, body: bytes) -> None:
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
        await self._send_json(writer, 202, {
            "sweep": sweep.id,
            "jobs": [self.queue.job_status(job_hash)
                     for job_hash in sweep.job_hashes],
            "cache_hits": sweep.cache_hits,
            "coalesced": sweep.coalesced,
            "events_url": f"/v1/sweeps/{sweep.id}/events",
        })

    async def _get_job(self, writer, job_hash: str) -> None:
        try:
            payload = self.queue.job_status(job_hash, include_result=True)
        except KeyError:
            raise HttpError(404, f"unknown job hash {job_hash!r}") from None
        await self._send_json(writer, 200, payload)

    async def _get_sweep(self, writer, sweep_id: str) -> None:
        try:
            payload = self.queue.sweep_status(sweep_id)
        except KeyError:
            raise HttpError(404, f"unknown sweep {sweep_id!r}") from None
        await self._send_json(writer, 200, payload)

    async def _delete_sweep(self, writer, sweep_id: str) -> None:
        try:
            payload = self.queue.cancel(sweep_id)
        except KeyError:
            raise HttpError(404, f"unknown sweep {sweep_id!r}") from None
        await self._send_json(writer, 200, payload)

    async def _get_trace(self, writer, sweep_id: str) -> None:
        try:
            payload = self.queue.trace_spans(sweep_id)
        except KeyError:
            raise HttpError(404, f"unknown sweep {sweep_id!r}") from None
        await self._send_json(writer, 200, payload)

    async def _get_stats(self, writer) -> None:
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
        await self._send_json(writer, 200, payload)

    async def _stream_events(self, writer, sweep_id: str,
                             query: Dict[str, list]) -> None:
        try:
            from_index = int(query.get("from", ["0"])[0])
        except ValueError:
            raise HttpError(400, "'from' must be an integer") from None
        # subscribe() is an async generator: its unknown-sweep KeyError only
        # surfaces at the first iteration, after headers went out.  Probe
        # eagerly so unknown sweeps get a clean 404 instead of a dead stream.
        try:
            self.queue.sweep_status(sweep_id)
        except KeyError:
            raise HttpError(404, f"unknown sweep {sweep_id!r}") from None
        stream = self.queue.subscribe(sweep_id, from_index=from_index)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream; charset=utf-8\r\n"
            b"Cache-Control: no-cache\r\nConnection: close\r\n\r\n")
        await writer.drain()
        agen = stream.__aiter__()
        next_event = asyncio.ensure_future(agen.__anext__())
        try:
            while True:
                try:
                    index, event = await asyncio.wait_for(
                        asyncio.shield(next_event), HEARTBEAT_SECONDS)
                except asyncio.TimeoutError:
                    # Idle stream: keep the connection (and any proxy on the
                    # way) alive, then go back to waiting for the same
                    # shielded future.
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                except StopAsyncIteration:
                    break
                frame = (f"id: {index}\n"
                         f"event: {event.get('event', 'message')}\n"
                         f"data: {json.dumps(event, sort_keys=True)}\n\n")
                writer.write(frame.encode("utf-8"))
                await writer.drain()
                if event.get("event") == "sweep_done":
                    break
                next_event = asyncio.ensure_future(agen.__anext__())
        finally:
            if not next_event.done():
                next_event.cancel()
            await agen.aclose()

    # -- response helpers ---------------------------------------------------

    async def _send_json(self, writer, status: int, payload) -> None:
        body = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode(
            "utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _send_text(self, writer, status: int, text: str) -> None:
        body = text.encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
