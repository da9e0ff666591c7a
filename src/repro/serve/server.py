"""The rule-serving daemon: threaded listener + atomic model swap.

:class:`RuleServer` is the long-lived process the ROADMAP's "mine once,
serve millions" item asks for.  It owns exactly one mutable reference —
``self._index``, the current :class:`~repro.serve.model.RuleIndex` —
and two kinds of threads:

* **query threads** (one per connection, via
  ``socketserver.ThreadingTCPServer``) read the reference *once* per
  request and answer from that snapshot.  Because an index is immutable
  and the reference assignment is a single atomic store, a query never
  observes a half-built model: it sees the old generation or the new
  one, never a mix.
* **one re-mine worker** (at most) runs the model source's ``mine()``
  on a shadow copy — an attached store gets its own read-only mapping,
  a ``.dat`` file is re-read, a streaming source is re-scanned — then
  builds a fresh index at ``generation + 1`` and swaps it in.  A
  re-mine that raises leaves the serving index untouched: queries keep
  answering from the old generation and the failure is surfaced in the
  ``stats`` reply (``remine_failures``, ``last_remine_error``).

Wire protocol: one JSON object per line, one JSON reply per line, over
a plain TCP socket; connections are persistent (a client can pipeline
many requests).  Requests are ``{"op": ...}`` with op-specific fields —
``ping``, ``query`` (``basket``, optional ``top``), ``stats``,
``remine`` (optional ``wait``), ``shutdown``.  For curl-ability the
listener also speaks a minimal read-only HTTP/1.0 dialect: ``GET
/ping``, ``GET /stats`` and ``GET /query?basket=3,5&top=4`` return the
same JSON as the line ops, one response per connection.

Every reply carries ``"generation"`` so clients (and the swap drills in
CI) can watch a background re-mine land without a single failed query.
"""

from __future__ import annotations

import json
import socketserver
import threading
import time
from collections import deque
from typing import Any
from urllib.parse import parse_qs, urlparse

from .model import RuleIndex
from .sources import ModelSource

__all__ = ["RuleServer", "ServerStats"]

#: Latency samples kept for the p50/p99 figures (a bounded reservoir —
#: the daemon's memory footprint must not grow with queries served).
LATENCY_WINDOW = 8192


class ServerStats:
    """Thread-safe counters + latency reservoir behind the stats reply."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.queries = 0
        self.failed_queries = 0
        self.remines = 0
        self.remine_failures = 0
        self.last_remine_error: str | None = None
        self.last_remine_s: float | None = None
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)

    def record_query(self, seconds: float) -> None:
        with self._lock:
            self.queries += 1
            self._latencies.append(seconds)

    def record_failed_query(self) -> None:
        with self._lock:
            self.failed_queries += 1

    def record_remine(self, seconds: float) -> None:
        with self._lock:
            self.remines += 1
            self.last_remine_s = seconds

    def record_remine_failure(self, error: str) -> None:
        with self._lock:
            self.remine_failures += 1
            self.last_remine_error = error

    def percentiles(self) -> tuple[float, float]:
        """Return (p50, p99) query latency in seconds over the window."""
        with self._lock:
            samples = sorted(self._latencies)
        if not samples:
            return 0.0, 0.0

        def at(q: float) -> float:
            index = min(len(samples) - 1, int(q * (len(samples) - 1) + 0.5))
            return samples[index]
        return at(0.50), at(0.99)

    def snapshot(self) -> dict[str, Any]:
        p50, p99 = self.percentiles()
        with self._lock:
            return {
                "uptime_seconds": time.time() - self.started_at,
                "queries": self.queries,
                "failed_queries": self.failed_queries,
                "query_p50_ms": p50 * 1e3,
                "query_p99_ms": p99 * 1e3,
                "remines": self.remines,
                "remine_failures": self.remine_failures,
                "last_remine_error": self.last_remine_error,
                "last_remine_s": self.last_remine_s,
            }


class _Listener(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler, rule_server: RuleServer):
        self.rule_server = rule_server
        super().__init__(address, handler)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a line-JSON session or a single HTTP GET."""

    def handle(self) -> None:
        server: RuleServer = self.server.rule_server  # type: ignore[attr-defined]
        server.track_connection(self.connection)
        try:
            self._serve_lines(server)
        finally:
            server.untrack_connection(self.connection)

    def _serve_lines(self, server: RuleServer) -> None:
        while True:
            try:
                raw = self.rfile.readline()
            except OSError:
                return
            if not raw:
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            if line.startswith(("GET ", "HEAD ")):
                self._handle_http(server, line)
                return
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                self._reply({"status": "error", "error": f"bad request: {exc}"})
                continue
            reply, keep_open = server.dispatch(request)
            self._reply(reply)
            if not keep_open:
                return

    def _reply(self, payload: dict[str, Any]) -> None:
        try:
            self.wfile.write(_encode(payload) + b"\n")
            self.wfile.flush()
        except OSError:
            pass

    def _handle_http(self, server: RuleServer, request_line: str) -> None:
        # Drain the headers; the dialect is read-only, bodies are ignored.
        while True:
            raw = self.rfile.readline()
            if not raw or raw in (b"\r\n", b"\n"):
                break
        parts = request_line.split()
        target = parts[1] if len(parts) > 1 else "/"
        parsed = urlparse(target)
        query = parse_qs(parsed.query)
        if parsed.path == "/ping":
            payload, status = server.dispatch({"op": "ping"})[0], 200
        elif parsed.path == "/stats":
            payload, status = server.dispatch({"op": "stats"})[0], 200
        elif parsed.path == "/query":
            try:
                basket = [
                    int(item)
                    for chunk in query.get("basket", [])
                    for item in chunk.split(",")
                    if item
                ]
                top = (
                    int(query["top"][0]) if "top" in query else None
                )
            except ValueError:
                payload, status = {
                    "status": "error",
                    "error": "basket and top must be integers",
                }, 400
            else:
                request = {"op": "query", "basket": basket}
                if top is not None:
                    request["top"] = top
                payload = server.dispatch(request)[0]
                status = 200 if payload.get("status") == "ok" else 400
        else:
            payload, status = {
                "status": "error",
                "error": f"no such endpoint: {parsed.path}",
            }, 404
        body = _encode(payload) + b"\n"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}[status]
        head = (
            f"HTTP/1.0 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            self.wfile.write(head + body)
            self.wfile.flush()
        except OSError:
            pass


def _encode(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _is_int(value: Any) -> bool:
    """A JSON integer; ``true``/``false`` decode to ``bool``, an ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


class RuleServer:
    """Long-lived rule-serving daemon with background re-mining.

    Args:
        source: where models come from; ``mine()`` runs once at
            :meth:`start` (the cold build) and once per re-mine.
        min_confidence: rule-derivation threshold for every generation.
        host / port: listen address; port 0 binds an ephemeral port
            (read the real one from :attr:`address` after ``start()``).
        remine_every: optional seconds between automatic background
            re-mines (the drift story); ``None`` re-mines only on demand.
    """

    def __init__(
        self,
        source: ModelSource,
        min_confidence: float = 0.5,
        host: str = "127.0.0.1",
        port: int = 0,
        remine_every: float | None = None,
    ):
        if not 0.0 < min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must be in (0, 1], got {min_confidence}"
            )
        if remine_every is not None and remine_every <= 0:
            raise ValueError(
                f"remine_every must be positive, got {remine_every}"
            )
        self.source = source
        self.min_confidence = min_confidence
        self.stats = ServerStats()
        self._host = host
        self._port = port
        self._remine_every = remine_every
        self._index: RuleIndex | None = None
        self._listener: _Listener | None = None
        self._listener_thread: threading.Thread | None = None
        self._remine_lock = threading.Lock()
        self._remine_thread: threading.Thread | None = None
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        self._timer_stop = threading.Event()
        self._timer_thread: threading.Thread | None = None
        self._shutdown_requested = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.server_address[:2]

    @property
    def index(self) -> RuleIndex:
        """The currently serving model snapshot."""
        if self._index is None:
            raise RuntimeError("server has no model (not started?)")
        return self._index

    def start(self) -> RuleServer:
        """Cold-build the first model, then start listening."""
        if self._listener is not None:
            raise RuntimeError("server is already started")
        result = self.source.mine()
        self._index = RuleIndex.from_result(
            result,
            self.min_confidence,
            generation=1,
            source=self.source.describe(),
        )
        self._listener = _Listener((self._host, self._port), _Handler, self)
        self._listener_thread = threading.Thread(
            target=self._listener.serve_forever,
            name="repro-serve-listener",
            daemon=True,
        )
        self._listener_thread.start()
        if self._remine_every is not None:
            self._timer_thread = threading.Thread(
                target=self._timer_loop, name="repro-serve-timer", daemon=True
            )
            self._timer_thread.start()
        return self

    def track_connection(self, connection) -> None:
        with self._connections_lock:
            self._connections.add(connection)

    def untrack_connection(self, connection) -> None:
        with self._connections_lock:
            self._connections.discard(connection)

    def stop(self) -> None:
        """Stop listening and wait for background work to finish.

        Established connections are severed too — a stopped daemon must
        look exactly like a dead one to its clients (whose retry-once
        policy then kicks in against a restarted instance).
        """
        self._timer_stop.set()
        if self._listener is not None:
            self._listener.shutdown()
            self._listener.server_close()
            self._listener = None
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(2)  # SHUT_RDWR
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        if self._listener_thread is not None:
            self._listener_thread.join(timeout=10.0)
            self._listener_thread = None
        remine = self._remine_thread
        if remine is not None:
            remine.join(timeout=60.0)
        if self._timer_thread is not None:
            self._timer_thread.join(timeout=10.0)
            self._timer_thread = None

    def __enter__(self) -> RuleServer:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit (signal handlers, shutdown op)."""
        self._shutdown_requested.set()

    def wait_for_shutdown_request(self, poll_seconds: float = 0.2) -> None:
        """Block until a client's ``shutdown`` op (or :meth:`stop`)."""
        while not self._shutdown_requested.wait(poll_seconds):
            if self._listener is None:
                return

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def dispatch(
        self, request: dict[str, Any]
    ) -> tuple[dict[str, Any], bool]:
        """Answer one request; return ``(reply, keep_connection_open)``."""
        op = request.get("op")
        if op == "ping":
            return {
                "status": "ok",
                "op": "ping",
                "generation": self.index.generation,
            }, True
        if op == "query":
            return self._op_query(request), True
        if op == "stats":
            return self._op_stats(), True
        if op == "remine":
            return self._op_remine(request), True
        if op == "shutdown":
            self._shutdown_requested.set()
            return {
                "status": "ok",
                "op": "shutdown",
                "generation": self.index.generation,
            }, False
        self.stats.record_failed_query()
        return {
            "status": "error",
            "error": f"unknown op: {op!r}",
        }, True

    def _op_query(self, request: dict[str, Any]) -> dict[str, Any]:
        start = time.perf_counter()
        basket = request.get("basket")
        top = request.get("top")
        if (
            not isinstance(basket, list)
            or not basket
            or not all(_is_int(item) for item in basket)
        ):
            self.stats.record_failed_query()
            return {
                "status": "error",
                "error": "query needs a non-empty integer 'basket' list",
            }
        if top is not None and (not _is_int(top) or top < 1):
            self.stats.record_failed_query()
            return {"status": "error", "error": "'top' must be a positive int"}
        # One atomic read: everything below sees this snapshot only.
        index = self.index
        suggestions = index.query(basket, top=top)
        self.stats.record_query(time.perf_counter() - start)
        return {
            "status": "ok",
            "op": "query",
            "generation": index.generation,
            "basket": sorted(set(basket)),
            "suggestions": [s.to_dict() for s in suggestions],
        }

    def _op_stats(self) -> dict[str, Any]:
        index = self.index
        payload = self.stats.snapshot()
        payload.update(
            {
                "status": "ok",
                "op": "stats",
                "generation": index.generation,
                "model": index.describe(),
                "remine_in_progress": self._remine_lock.locked(),
            }
        )
        return payload

    def _op_remine(self, request: dict[str, Any]) -> dict[str, Any]:
        wait = bool(request.get("wait", False))
        started = self.trigger_remine()
        if not started and not wait:
            return {
                "status": "busy",
                "op": "remine",
                "generation": self.index.generation,
            }
        if wait:
            thread = self._remine_thread
            if thread is not None:
                thread.join()
        snapshot = self.stats.snapshot()
        return {
            "status": "ok",
            "op": "remine",
            "started": started,
            "waited": wait,
            "generation": self.index.generation,
            "remines": snapshot["remines"],
            "remine_failures": snapshot["remine_failures"],
            "last_remine_error": snapshot["last_remine_error"],
        }

    # ------------------------------------------------------------------
    # Background re-mine
    # ------------------------------------------------------------------

    def trigger_remine(self) -> bool:
        """Start a background re-mine; ``False`` if one is running."""
        if not self._remine_lock.acquire(blocking=False):
            return False
        thread = threading.Thread(
            target=self._remine_worker, name="repro-serve-remine", daemon=True
        )
        self._remine_thread = thread
        thread.start()
        return True

    def _remine_worker(self) -> None:
        # The lock is held from trigger_remine; released when the swap
        # (or the failure bookkeeping) is done.
        try:
            old = self.index
            start = time.perf_counter()
            result = self.source.mine()
            fresh = RuleIndex.from_result(
                result,
                self.min_confidence,
                generation=old.generation + 1,
                source=self.source.describe(),
            )
            self._index = fresh  # the atomic swap
            self.stats.record_remine(time.perf_counter() - start)
        except Exception as exc:  # noqa: BLE001 — degrade, don't die
            self.stats.record_remine_failure(f"{type(exc).__name__}: {exc}")
        finally:
            self._remine_lock.release()

    def _timer_loop(self) -> None:
        assert self._remine_every is not None
        while not self._timer_stop.wait(self._remine_every):
            self.trigger_remine()
