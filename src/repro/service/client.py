"""Blocking stdlib client for the sweep daemon (``repro submit`` / ``watch``).

Pure ``http.client`` + ``json`` — usable from scripts, tests and the CLI
without any new dependency.  Requests reuse one kept-alive connection per
thread and per process (a forked child opens its own), and a reused
connection the daemon has closed meanwhile is replaced once, transparently.
Each SSE stream holds a connection of its own and yields parsed event
dictionaries as they arrive.

The daemon address comes from the constructor or the ``REPRO_SERVICE_URL``
environment variable; the api key from the constructor or
``REPRO_SERVICE_TOKEN``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from http.client import HTTPConnection, HTTPException
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.service.server import TOKEN_ENV_VAR, URL_ENV_VAR


class ServiceError(RuntimeError):
    """The daemon answered with an error (or not at all)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


def configured_url(url: Optional[str] = None) -> Optional[str]:
    """The daemon URL to use: explicit argument > $REPRO_SERVICE_URL > None.

    ``None`` means "no server configured" — callers fall back to in-process
    execution (the CLI's graceful degradation path).
    """
    url = url or os.environ.get(URL_ENV_VAR, "").strip() or None
    return url


class ServiceClient:
    """Talk to a running :class:`~repro.service.server.ReproService`."""

    def __init__(self, url: str, token: Optional[str] = None,
                 timeout: float = 30.0) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ServiceError(f"only http:// URLs are supported, got {url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout
        self.token = (token if token is not None
                      else os.environ.get(TOKEN_ENV_VAR, "").strip() or None)
        #: One kept-alive connection per (process, thread).
        self._connections: Dict[Tuple[int, int], HTTPConnection] = {}

    # -- plumbing -----------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _connection(self) -> HTTPConnection:
        """The calling thread's connection; a forked child never shares
        its parent's socket."""
        key = (os.getpid(), threading.get_ident())
        connection = self._connections.get(key)
        if connection is None:
            connection = self._connections[key] = HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return connection

    def close(self) -> None:
        """Close every connection the client holds (a later request opens
        a new one)."""
        for connection in list(self._connections.values()):
            connection.close()

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None, text: bool = False):
        """One request on this thread's connection: the parsed JSON answer,
        or with ``text`` the raw body.  An error status raises
        :class:`ServiceError` with the daemon's message."""
        body = None
        headers = self._headers()
        if text:
            headers["Accept"] = "text/plain"
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        reused = connection.sock is not None
        while True:
            try:
                try:
                    connection.request(method, path, body=body,
                                       headers=headers)
                    response = connection.getresponse()
                    raw = response.read()
                    break
                except BaseException:
                    connection.close()  # its state is unknown now
                    raise
            except (OSError, HTTPException) as exc:
                if reused and isinstance(exc, ConnectionError):
                    # The daemon closed the idle connection before this
                    # request reached it: reconnect once.
                    reused = False
                    continue
                raise ServiceError(
                    f"cannot reach the sweep daemon at "
                    f"http://{self.host}:{self.port} ({exc})") from None
        if text and response.status < 400:
            return raw.decode("utf-8", "replace")
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            parsed = {"error": raw.decode("utf-8", "replace")[:200]}
        if response.status >= 400:
            raise ServiceError(
                f"{method} {path} -> {response.status}: "
                f"{parsed.get('error', 'unknown error')}",
                status=response.status)
        return parsed

    # -- endpoints ----------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def submit(self, payload: dict) -> dict:
        """POST a raw ``/v1/sweeps`` body (``{"jobs": ...}`` or
        ``{"experiment": ...}``); returns the submission receipt."""
        return self._request("POST", "/v1/sweeps", payload=payload)

    def job(self, job_hash: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_hash}")

    def sweep(self, sweep_id: str) -> dict:
        return self._request("GET", f"/v1/sweeps/{sweep_id}")

    def cancel(self, sweep_id: str) -> dict:
        return self._request("DELETE", f"/v1/sweeps/{sweep_id}")

    def trace(self, sweep_id: str) -> dict:
        """Collected tracing spans for a sweep (coordinator + workers)."""
        return self._request("GET", f"/v1/sweeps/{sweep_id}/trace")

    def metrics(self) -> str:
        """Raw Prometheus text exposition from ``GET /v1/metrics``."""
        return self._request("GET", "/v1/metrics", text=True)

    # -- fabric (worker-side protocol) --------------------------------------

    def lease(self, worker: str, capacity: int = 1) -> dict:
        """Ask the coordinator for up to ``capacity`` leased jobs."""
        return self._request("POST", "/v1/fabric/lease",
                             payload={"worker": worker,
                                      "capacity": capacity})

    def heartbeat(self, lease_id: str) -> dict:
        """Renew a lease; raises :class:`ServiceError` (status 410) when
        the lease is gone and the worker must abandon the job."""
        return self._request("POST",
                             f"/v1/fabric/leases/{lease_id}/heartbeat")

    def complete(self, lease_id: str, payload: dict) -> dict:
        """Upload a result or failure for a leased job."""
        return self._request("POST",
                             f"/v1/fabric/leases/{lease_id}/complete",
                             payload=payload)

    def fabric(self) -> dict:
        return self._request("GET", "/v1/fabric")

    # -- SSE ----------------------------------------------------------------

    def _sse(self, sweep_id: str, from_index: int,
             timeout: Optional[float]) -> Iterator[Tuple[int, dict]]:
        """One SSE connection: yields ``(index, event)`` until the server
        closes or ``sweep_done`` arrives.  The index comes from the
        server's ``id:`` lines — it is the resume cursor."""
        connection = HTTPConnection(self.host, self.port,
                                    timeout=timeout or self.timeout)
        try:
            try:
                connection.request(
                    "GET", f"/v1/sweeps/{sweep_id}/events?from={from_index}",
                    headers=self._headers())
                response = connection.getresponse()
            except (ConnectionError, OSError) as exc:
                raise ServiceError(
                    f"cannot reach the sweep daemon at "
                    f"http://{self.host}:{self.port} ({exc})") from None
            if response.status >= 400:
                raw = response.read()
                try:
                    message = json.loads(raw.decode("utf-8")).get("error")
                except ValueError:
                    message = raw.decode("utf-8", "replace")[:200]
                raise ServiceError(f"events stream -> {response.status}: "
                                   f"{message}", status=response.status)
            data_lines: List[str] = []
            event_id: Optional[int] = None
            index = from_index
            while True:
                line = response.readline()
                if not line:
                    return  # server closed the stream
                line = line.decode("utf-8").rstrip("\r\n")
                if line.startswith(":"):
                    continue  # heartbeat comment
                if line.startswith("id:"):
                    try:
                        event_id = int(line[len("id:"):].strip())
                    except ValueError:
                        event_id = None
                    continue
                if line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                    continue
                if line == "" and data_lines:
                    event = json.loads("\n".join(data_lines))
                    data_lines = []
                    if event_id is not None:
                        index = event_id
                    yield index, event
                    index += 1
                    event_id = None
                    if event.get("event") == "sweep_done":
                        return
        finally:
            connection.close()

    def events(self, sweep_id: str, from_index: int = 0,
               timeout: Optional[float] = None) -> Iterator[dict]:
        """Yield the sweep's events as dictionaries until ``sweep_done``.

        ``timeout`` bounds the *gap between events* (the socket read), not
        the whole stream; the server's keepalive comments reset it, so a
        healthy but idle stream never times out spuriously.  One shot: a
        dropped socket simply ends the iterator — use :meth:`stream` for
        the reconnecting variant.
        """
        for _index, event in self._sse(sweep_id, from_index, timeout):
            yield event

    def stream(self, sweep_id: str, from_index: int = 0,
               timeout: Optional[float] = None, max_retries: int = 8,
               backoff_seconds: float = 0.2,
               backoff_cap: float = 5.0) -> Iterator[dict]:
        """Like :meth:`events`, but survives dropped SSE sockets.

        On a connection error, read timeout, or a stream that ends before
        ``sweep_done``, the client reconnects with the ``?from=`` resume
        cursor (last seen ``id:`` + 1) under bounded exponential backoff —
        no event is ever replayed or lost across reconnects.  The retry
        budget resets whenever an event actually arrives, so a long sweep
        may ride out many separate daemon blips.  HTTP-level errors are
        *not* retried: a 404 after a drop means the daemon restarted and
        lost the sweep — resubmit (the warm store turns it into a pure
        cache hit).
        """
        cursor = max(0, int(from_index))
        failures = 0
        while True:
            dropped: Optional[BaseException] = None
            try:
                for index, event in self._sse(sweep_id, cursor, timeout):
                    failures = 0
                    cursor = index + 1
                    yield event
                    if event.get("event") == "sweep_done":
                        return
                # readline() saw EOF before sweep_done: the daemon went
                # away mid-stream (restart, proxy reap, socket reset).
                dropped = ServiceError(
                    "event stream ended before sweep_done")
            except ServiceError as exc:
                if exc.status is not None:
                    raise  # a real HTTP answer; retrying cannot help
                dropped = exc
            except (socket.timeout, OSError) as exc:
                dropped = exc
            failures += 1
            if failures > max_retries:
                raise ServiceError(
                    f"event stream for {sweep_id} lost after "
                    f"{max_retries} reconnect attempts: {dropped}")
            time.sleep(min(backoff_cap,
                           backoff_seconds * (2.0 ** (failures - 1))))

    def wait(self, sweep_id: str, from_index: int = 0,
             on_event=None, timeout: Optional[float] = None) -> dict:
        """Follow the stream to completion; returns the final sweep status.

        ``on_event(event)`` is called for every event (the CLI prints
        progress lines from it).  Rides :meth:`stream`, so a daemon blip
        mid-watch reconnects instead of returning a half-done status.
        """
        for event in self.stream(sweep_id, from_index=from_index,
                                 timeout=timeout):
            if on_event is not None:
                on_event(event)
        return self.sweep(sweep_id)
