"""Stdlib-only asyncio HTTP front door for the verification service.

One small, dependency-free HTTP/1.1 server (``asyncio.start_server`` +
hand-rolled request parsing — no aiohttp in the base image, none
needed).  The API surface, all JSON:

====== ============================ =======================================
POST   ``/v1/jobs``                 submit a job (body = JobSpec fields +
                                    optional ``priority``); returns status
GET    ``/v1/jobs``                 list all jobs (newest first)
GET    ``/v1/jobs/{id}``            one job's status
GET    ``/v1/jobs/{id}/result``     per-point artifacts (null = pending)
POST   ``/v1/jobs/{id}/cancel``     cancel; returns the final status
GET    ``/v1/jobs/{id}/events``     NDJSON progress stream (stage/point/
                                    job events; ends at a terminal state;
                                    ``?after=N`` resumes past seq ``N``)
GET    ``/v1/healthz``              liveness + queue/store stats
====== ============================ =======================================

Handlers delegate to the thread-safe :class:`~repro.service.scheduler.
Scheduler`; blocking calls (submission expands grids and probes the
store) hop onto worker threads via ``asyncio.to_thread`` so the accept
loop never stalls.  The events stream writes one JSON object per line
and closes after the job's terminal event — ``Connection: close``
framing, so clients just read lines until EOF.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.parse
from typing import TYPE_CHECKING

from ..errors import ReproError
from .jobs import JobState

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .scheduler import Scheduler

__all__ = ["DEFAULT_PORT", "ServiceServer"]

#: default TCP port of ``repro serve``
DEFAULT_PORT = 7463

#: maximum accepted request-body size (grids are tiny; this is a guard)
_MAX_BODY = 4 * 1024 * 1024


class _HttpError(Exception):
    """Internal: carries an HTTP status + message to the writer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class ServiceServer:
    """The asyncio front door bound to one :class:`Scheduler`."""

    def __init__(
        self,
        scheduler: "Scheduler",
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (updates ``port`` when given 0)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """:meth:`start` (if needed) then serve until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def run_in_thread(self) -> "threading.Thread":
        """Start the server on a dedicated event-loop thread (tests).

        Blocks until the socket is bound, so ``port`` is final when
        this returns.
        """
        ready = threading.Event()
        self._loop = asyncio.new_event_loop()

        def runner() -> None:
            asyncio.set_event_loop(self._loop)

            async def main() -> None:
                await self.start()
                ready.set()
                await self._server.serve_forever()

            try:
                self._loop.run_until_complete(main())
            except asyncio.CancelledError:
                pass
            finally:
                self._loop.close()

        thread = threading.Thread(
            target=runner, name="repro-service-http", daemon=True
        )
        thread.start()
        if not ready.wait(timeout=10.0):
            raise ReproError("service server failed to start")
        return thread

    def stop_thread(self) -> None:
        """Stop a :meth:`run_in_thread` server from any thread."""
        loop = getattr(self, "_loop", None)
        if loop is None:
            return

        def cancel_all() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()

        # Cancel from inside the loop thread: the loop closes as soon as
        # the server task ends, so a second cross-thread call could find
        # it closed.
        try:
            loop.call_soon_threadsafe(cancel_all)
        except RuntimeError:  # the loop already closed
            pass

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, query, body = await self._read_request(reader)
            await self._dispatch(method, path, query, body, writer)
        except _HttpError as exc:
            await self._write_json(
                writer, exc.status, {"error": str(exc)}
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - one bad request, not the server
            try:
                await self._write_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise _HttpError(413, "request body too large")
        body: dict = {}
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except ValueError:
                raise _HttpError(400, "request body is not valid JSON") from None
            if not isinstance(body, dict):
                raise _HttpError(400, "request body must be a JSON object")
        path, _, raw_query = target.partition("?")
        query = {
            name: values[-1]
            for name, values in urllib.parse.parse_qs(raw_query).items()
        }
        return method.upper(), path, query, body

    async def _write_json(
        self, writer: asyncio.StreamWriter, status: int, payload: object
    ) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        method: str,
        path: str,
        query: dict,
        body: dict,
        writer: asyncio.StreamWriter,
    ) -> None:
        segments = [s for s in path.split("/") if s]
        if segments[:1] != ["v1"]:
            raise _HttpError(404, f"unknown path {path!r}")
        rest = segments[1:]
        try:
            if rest == ["healthz"] and method == "GET":
                await self._write_json(
                    writer, 200, {"status": "ok", **self.scheduler.stats()}
                )
            elif rest == ["jobs"] and method == "POST":
                priority = int(body.pop("priority", 0) or 0)
                job = await asyncio.to_thread(
                    self.scheduler.submit, body, priority
                )
                await self._write_json(writer, 201, job.status_dict())
            elif rest == ["jobs"] and method == "GET":
                await self._write_json(
                    writer,
                    200,
                    {"jobs": [j.status_dict() for j in self.scheduler.jobs()]},
                )
            elif len(rest) == 2 and rest[0] == "jobs" and method == "GET":
                job = self.scheduler.job(rest[1])
                await self._write_json(writer, 200, job.status_dict())
            elif (
                len(rest) == 3
                and rest[0] == "jobs"
                and rest[2] == "result"
                and method == "GET"
            ):
                job = self.scheduler.job(rest[1])
                artifacts = await asyncio.to_thread(
                    self.scheduler.job_result, rest[1]
                )
                await self._write_json(
                    writer,
                    200,
                    {
                        "job": job.status_dict(),
                        "runs": [
                            {
                                "point": job.points[i],
                                "params": job.params[i] if i < len(job.params) else {},
                                "key": job.keys[i],
                                "artifact": None if a is None else a.to_dict(),
                            }
                            for i, a in enumerate(artifacts)
                        ],
                    },
                )
            elif (
                len(rest) == 3
                and rest[0] == "jobs"
                and rest[2] == "cancel"
                and method == "POST"
            ):
                job = await asyncio.to_thread(self.scheduler.cancel, rest[1])
                await self._write_json(writer, 200, job.status_dict())
            elif (
                len(rest) == 3
                and rest[0] == "jobs"
                and rest[2] == "events"
                and method == "GET"
            ):
                try:
                    after = int(query.get("after", 0) or 0)
                except ValueError:
                    raise _HttpError(
                        400, f"after must be an integer, got {query['after']!r}"
                    ) from None
                await self._stream_events(writer, rest[1], after)
            else:
                raise _HttpError(
                    405 if rest and rest[0] in ("jobs", "healthz") else 404,
                    f"no route for {method} {path}",
                )
        except ReproError as exc:
            status = 404 if "unknown job" in str(exc) else 400
            raise _HttpError(status, str(exc)) from None

    # ------------------------------------------------------------------
    # NDJSON streaming
    # ------------------------------------------------------------------
    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str, after: int = 0
    ) -> None:
        job = self.scheduler.job(job_id)  # 404s before headers go out
        if self.scheduler.events is None:
            raise _HttpError(400, "server started without an event bus")
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        def is_final(event: dict) -> bool:
            return event.get("type") == "job" and JobState(
                str(event.get("state"))
            ).terminal

        with self.scheduler.events.subscribe(
            job_id, replay=True, after=after
        ) as sub:
            # Replay delivered a prefix; if the job is already terminal
            # and its terminal event predates our subscription history,
            # synthesize one so the stream always terminates.
            saw_final = False
            for event in sub.drain():
                writer.write(json.dumps(event, sort_keys=True).encode() + b"\n")
                if is_final(event):
                    saw_final = True
            await writer.drain()
            if not saw_final and job.state.terminal:
                final = {
                    "type": "job",
                    "job": job.id,
                    "state": job.state.value,
                    "error": job.error,
                }
                writer.write(json.dumps(final, sort_keys=True).encode() + b"\n")
                await writer.drain()
                return
            while not saw_final:
                event = await asyncio.to_thread(sub.get, 0.5)
                if event is None:
                    continue
                writer.write(json.dumps(event, sort_keys=True).encode() + b"\n")
                if is_final(event):
                    saw_final = True
                await writer.drain()
