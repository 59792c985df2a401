"""Asyncio partition-query server: high-QPS lookups over epochs.

:class:`PartitionServer` keeps a partitioned network resident and
answers lookup traffic from a :class:`~repro.serve.snapshot.
SnapshotStore`, stdlib-only (``asyncio.Protocol`` + hand-rolled
HTTP/1.1). It is also the project's one HTTP endpoint for metrics:
any :class:`~repro.obs.metrics.MetricsRegistry` handed in as
``registry`` (e.g. a :class:`~repro.obs.export.MonitoringSession`'s)
is rendered at ``/metrics``.

Endpoints (all JSON unless noted):

=============================================  ==========================
``GET /lookup?segment=ID``                     region of one segment
``GET /lookup?x=..&y=..``                      point -> segment -> region
``GET /batch?segments=1,2,3``                  batch lookup (GET form)
``POST /lookup/batch``                         batch lookup (JSON body
                                               ``{"segments": [...]}``
                                               or a bare id list)
``GET /region/R``                              region summary (size,
                                               boundary, bbox, density)
``GET /region/R/boundary``                     boundary segment ids
``GET /quality``                               epoch quality metrics
``GET /epoch``                                 current epoch + age + pins
``GET /healthz``                               liveness probe
``GET /metrics``                               Prometheus exposition
                                               (text, version 0.0.4)
``GET /slo``                                   SLO burn state (JSON;
                                               ``{"enabled": false}``
                                               without a tracker)
``GET /dashboard``                             live telemetry HTML
                                               (sparklines, SLOs,
                                               epoch genealogy)
``GET /trace``                                 recent request-group
                                               spans (JSON, debug)
=============================================  ==========================

Consistency: every request resolves the epoch exactly once. Batches —
and every pipelined group of requests that arrives in one socket read
— run under :meth:`SnapshotStore.pinned`, so answers never mix labels
from two epochs even when a publish lands mid-batch.

Throughput: the hot path is ``asyncio.Protocol``-level. Pipelined
requests in one ``data_received`` buffer are parsed together, answered
from one pinned epoch (single-lookup coalescing — one label take per
group), and written back as one ``transport.write``; ``TCP_NODELAY``
keeps tail latency flat. The per-request overhead is a few tens of
microseconds of pure Python, which sustains >10k lookups/s on a single
core (see ``benchmarks/test_bench_serving.py``).

Metrics (rendered by :func:`repro.obs.export.render_prometheus`, the
quantile gauges via :func:`repro.obs.export.quantile_from_latencies`):
``serve.requests[endpoint=..]`` counters, ``serve.lookups`` counter,
``serve.request_latency_s`` histogram plus ``serve.latency_p50_s`` /
``serve.latency_p99_s`` gauges, ``serve.qps`` gauge over a sliding
window, ``serve.batch_size`` histogram, ``serve.epoch`` /
``serve.epoch_age_s`` / ``serve.epoch_pins`` gauges, and the process
gauges every scrape refreshes. A per-status ``serve.responses
[status=..]`` counter family tracks the response mix, and an attached
:class:`~repro.obs.slo.SLOTracker` adds ``slo.*`` burn-rate gauges.

Request telemetry is strictly opt-in and batched into per-connection
*merge windows*, the one batching layer on the traced path:
consecutive all-200 fast-path groups on a connection are folded
together with a couple of integer adds, and the real work — one
:meth:`SLOTracker.record <repro.obs.slo.SLOTracker.record>` per
outcome, one :meth:`Tracer.record <repro.obs.trace.Tracer.record>`
span (endpoint/status/epoch/trace-id attributes, the trace id taken
from the window's W3C ``traceparent`` header or freshly assigned), one
sampled access line through ``obs.logs`` (stderr — stdout stays
reserved for the CLI's JSON) — runs once per window: every
``_TEL_MERGE_REQUESTS`` requests, at any status change, when the
connection closes, and before every reader endpoint. That amortisation
is what keeps the traced ``/lookup`` path within 5% of untraced
throughput (asserted by ``benchmarks/test_bench_serving.py``). With
nothing attached, the fast path does no telemetry work at all.
"""

from __future__ import annotations

import asyncio
import html as _html
import json
import random
import socket
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.exceptions import ServeError
from repro.obs.export import quantiles_from_latencies, render_prometheus
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import live_section
from repro.obs.trace import Tracer, make_traceparent, parse_traceparent
from repro.serve.snapshot import SnapshotStore

__all__ = ["PartitionServer", "ServerHandle"]

logger = get_logger("serve.server")

_JSON_HEAD = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n"
)
_LOOKUP_BODY = b'{"segment":%d,"region":%d,"epoch":%d}'
_ERROR_HEAD = (
    b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n"
)
_STATUS_TEXT = {
    400: b"Bad Request",
    404: b"Not Found",
    405: b"Method Not Allowed",
    503: b"Service Unavailable",
}

#: sliding-window length for the QPS gauge, seconds
_QPS_WINDOW_S = 10.0
#: per-request latency reservoir for the p50/p99 gauges
_LATENCY_RESERVOIR = 8192
#: bounded root-span history when request tracing is attached
_TRACE_ROOTS_CAP = 4096
#: emit a connection's merged telemetry window every N requests
_TEL_MERGE_REQUESTS = 512


def _json_response(payload: Any) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return _JSON_HEAD % len(body) + body


def _error_response(
    status: int, message: str, retry_after: Optional[int] = None
) -> bytes:
    body = json.dumps({"error": message, "status": status}).encode("utf-8")
    head = _ERROR_HEAD % (status, _STATUS_TEXT.get(status, b"Error"), len(body))
    if retry_after is not None:
        head = head[:-2] + (b"Retry-After: %d\r\n\r\n" % retry_after)
    return head + body


class _HttpProtocol(asyncio.Protocol):
    """Minimal pipelining HTTP/1.1 protocol for one client connection."""

    __slots__ = ("server", "transport", "buf", "tp_cache", "tel")

    def __init__(self, server: "PartitionServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.buf = b""
        # (head, (trace_id, parent_id)) of the last traceparent lookup;
        # pipelined clients replay one request template per connection,
        # so this one-entry cache turns per-group header parsing into a
        # single memcmp on the hot path
        self.tp_cache: Optional[Tuple[bytes, Tuple[str, str]]] = None
        # pending merged telemetry window for this connection:
        # [epoch, n_requests, seconds, head, target] or None (see
        # PartitionServer._tel_boundary)
        self.tel: Optional[list] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform-dependent
                pass
        self.server._connections += 1
        if self.server._tel_on:
            self.server._protos.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections -= 1
        if self.tel is not None:
            self.server._emit_tel(self)
        self.server._protos.discard(self)

    def data_received(self, data: bytes) -> None:
        buf = self.buf + data if self.buf else data
        # (method, target, body, head) — head kept for traceparent
        # extraction, which only ever reads it when a tracer is attached
        requests: List[Tuple[bytes, bytes, bytes, bytes]] = []
        while True:
            head_end = buf.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = buf[:head_end]
            line_end = head.find(b"\r\n")
            request_line = head if line_end < 0 else head[:line_end]
            parts = request_line.split(b" ")
            if len(parts) < 2:
                self.transport.write(_error_response(400, "malformed request line"))
                self.transport.close()
                self.buf = b""
                return
            method, target = parts[0], parts[1]
            body = b""
            consumed = head_end + 4
            if method == b"POST":
                length = _content_length(head)
                if length is None:
                    self.transport.write(
                        _error_response(400, "POST requires Content-Length")
                    )
                    self.transport.close()
                    self.buf = b""
                    return
                if len(buf) - consumed < length:
                    break  # body not fully buffered yet
                body = buf[consumed : consumed + length]
                consumed += length
            requests.append((method, target, body, head))
            buf = buf[consumed:]
        self.buf = buf
        if requests:
            self.server._handle_group(self, requests)


def _content_length(head: bytes) -> Optional[int]:
    lower = head.lower()
    idx = lower.find(b"content-length:")
    if idx < 0:
        return None
    end = lower.find(b"\r\n", idx)
    raw = head[idx + 15 : end if end >= 0 else len(head)]
    try:
        return int(raw)
    except ValueError:
        return None


class ServerHandle:
    """A running server on a background thread (tests and benchmarks).

    Obtained from :meth:`PartitionServer.start_background`; exposes the
    bound ``port`` / ``url`` and stops the loop (and joins the thread)
    on :meth:`stop` or context-manager exit.
    """

    def __init__(self, server: "PartitionServer", thread: threading.Thread) -> None:
        self.server = server
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, timeout: float = 10.0) -> None:
        self.server.request_shutdown()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class PartitionServer:
    """Serve partition lookups for the epochs of a snapshot store.

    Parameters
    ----------
    store:
        The :class:`~repro.serve.snapshot.SnapshotStore`; publish at
        least one epoch before starting the server.
    host, port:
        Bind address; port 0 picks a free port (see :attr:`port`).
    registry:
        Metrics registry backing ``/metrics`` (fresh one by default).
    run_id:
        Optional ``run_id`` label stamped on every exported sample.
    slo:
        Optional :class:`~repro.obs.slo.SLOTracker`; every merged
        request window feeds it and ``/slo`` + ``slo.*`` gauges light up.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every merged request
        window records one span with endpoint/status/epoch/trace-id/
        n_requests attributes (root history bounded at
        ``_TRACE_ROOTS_CAP``).
    access_log_sample:
        Fraction of request groups logged (INFO, stderr via
        ``obs.logs``) as structured access lines. 0.0 (default) logs
        nothing.
    live:
        Optional :class:`~repro.obs.live.LiveRecorder` rendered by
        ``/dashboard`` (the CLI wires its sources to the registry).
    genealogy:
        Optional :class:`~repro.obs.live.EpochGenealogyRecorder` whose
        epoch history feeds the ``/dashboard`` genealogy table.
    require_epoch:
        Fail fast in :meth:`start` when the store has no epoch yet
        (default). ``False`` lets the server come up first and answer
        503 + ``Retry-After`` until the first publish lands.
    inject_slow_s:
        Artificial per-group delay in seconds — the SLO demo's way of
        flipping ``/slo`` to burning. 0.0 (default) for production.
    """

    def __init__(
        self,
        store: SnapshotStore,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        run_id: Optional[str] = None,
        slo=None,
        tracer: Optional[Tracer] = None,
        access_log_sample: float = 0.0,
        live=None,
        genealogy=None,
        require_epoch: bool = True,
        inject_slow_s: float = 0.0,
    ) -> None:
        self.store = store
        self.host = host
        self.requested_port = int(port)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.run_id = run_id
        self.slo = slo
        self.tracer = tracer
        self.access_log_sample = float(access_log_sample)
        self.live = live
        self.genealogy = genealogy
        self.require_epoch = bool(require_epoch)
        self.inject_slow_s = float(inject_slow_s)
        self._access_logger = get_logger("serve.access")
        self._started_monotonic = time.monotonic()
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._connections = 0
        self._port: Optional[int] = None
        # QPS window: (monotonic_time, n_lookups) per handled group
        self._qps_window: Deque[Tuple[float, int]] = deque()
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_RESERVOIR)
        # telemetry plane attached? (fixed at construction; one bool
        # load per group instead of three attribute checks)
        self._tel_on = (
            slo is not None or tracer is not None or self.access_log_sample > 0.0
        )
        # live connections that may hold a pending telemetry window
        self._protos: set = set()
        self._endpoint_counts: Dict[str, int] = {}
        self._n_lookups = 0
        self._n_requests = 0

    # ------------------------------------------------------------------
    # lifecycle
    @property
    def port(self) -> int:
        if self._port is None:
            raise ServeError("server is not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "PartitionServer":
        """Bind and start accepting connections (coroutine)."""
        if self._asyncio_server is not None:
            return self
        if self.require_epoch:
            self.store.current()  # fail fast when no epoch exists yet
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._asyncio_server = await self._loop.create_server(
            lambda: _HttpProtocol(self), self.host, self.requested_port
        )
        self._port = self._asyncio_server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        logger.info("partition server listening on %s", self.url)
        return self

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown` is called (coroutine)."""
        if self._asyncio_server is None:
            await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self._close_async()

    def request_shutdown(self) -> None:
        """Ask the serving loop to exit (thread- and signal-safe)."""
        loop, shutdown = self._loop, self._shutdown
        if loop is None or shutdown is None:
            return
        loop.call_soon_threadsafe(shutdown.set)

    async def _close_async(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        logger.info("partition server stopped")

    def run(self, install_signal_handlers: bool = True) -> None:
        """Blocking entry point: serve until SIGTERM/SIGINT (CLI)."""
        import signal

        async def main() -> None:
            await self.start()
            if install_signal_handlers:
                loop = asyncio.get_running_loop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(sig, self.request_shutdown)
                    except (NotImplementedError, RuntimeError):
                        pass  # pragma: no cover - non-unix event loops
            await self.serve_until_shutdown()

        asyncio.run(main())

    def start_background(self) -> ServerHandle:
        """Start on a daemon thread; returns a :class:`ServerHandle`."""
        started = threading.Event()
        failure: List[BaseException] = []

        def runner() -> None:
            async def main() -> None:
                try:
                    await self.start()
                finally:
                    started.set()
                await self.serve_until_shutdown()

            try:
                asyncio.run(main())
            except BaseException as exc:  # surfaced via the handle below
                failure.append(exc)
                started.set()

        thread = threading.Thread(
            target=runner, name="repro-partition-server", daemon=True
        )
        thread.start()
        started.wait(timeout=30)
        if failure:
            raise failure[0]
        if self._port is None:
            raise ServeError("server failed to start within 30s")
        return ServerHandle(self, thread)

    # ------------------------------------------------------------------
    # request handling (hot path)
    def _handle_group(
        self, proto: _HttpProtocol, requests: List[Tuple[bytes, bytes, bytes, bytes]]
    ) -> None:
        """Answer every pipelined request of one socket read.

        The whole group is served under one pinned epoch — this is
        both the consistency guarantee (no mixed epochs inside any
        request, batch or not) and the coalescing that amortises the
        snapshot resolution over the group. Request telemetry (SLO,
        span, access log) is merged into per-connection windows and
        emitted once per window (see :meth:`_tel_boundary`).
        """
        t0 = time.perf_counter()
        if self.inject_slow_s > 0.0:
            time.sleep(self.inject_slow_s)  # --inject-slow-ms: SLO burn demo
        out: List[bytes] = []
        n_lookups = 0
        statuses: Dict[int, int] = {}
        try:
            snap = self.store.pin()
        except ServeError:
            # no epoch published yet: every request in the group gets a
            # 503 with Retry-After so clients know to back off briefly
            response = _error_response(
                503, "no epoch published yet", retry_after=1
            )
            proto.transport.write(response * len(requests))
            statuses[503] = len(requests)
            seconds = time.perf_counter() - t0
            self._account(len(requests), 0, seconds, statuses)
            if self._tel_on:
                self._tel_boundary(proto, requests, statuses, seconds, 0)
            return
        n_ok = 0
        n_bad_request = 0
        try:
            labels = snap.index.labels
            n_segments = snap.index.n_segments
            epoch = snap.epoch
            for method, target, body, __ in requests:
                # fast path: single-segment lookup (statuses counted in
                # local ints; one dict update per group, not per request)
                if method == b"GET" and target.startswith(b"/lookup?segment="):
                    raw = target[16:]
                    amp = raw.find(b"&")
                    if amp >= 0:
                        raw = raw[:amp]
                    try:
                        sid = int(raw)
                    except ValueError:
                        out.append(_error_response(400, "segment must be an integer"))
                        n_bad_request += 1
                        continue
                    if 0 <= sid < n_segments:
                        body_bytes = _LOOKUP_BODY % (sid, labels[sid], epoch)
                        out.append(_JSON_HEAD % len(body_bytes) + body_bytes)
                        n_lookups += 1
                        n_ok += 1
                    else:
                        out.append(
                            _error_response(
                                400, f"segment {sid} out of range [0, {n_segments})"
                            )
                        )
                        n_bad_request += 1
                    continue
                response, served, status = self._handle_slow(
                    method, target, body, snap
                )
                out.append(response)
                n_lookups += served
                statuses[status] = statuses.get(status, 0) + 1
        finally:
            self.store.unpin(snap)
        if n_ok:
            statuses[200] = statuses.get(200, 0) + n_ok
        if n_bad_request:
            statuses[400] = statuses.get(400, 0) + n_bad_request
        proto.transport.write(b"".join(out))
        seconds = time.perf_counter() - t0
        n_requests = len(requests)
        self._account(n_requests, n_lookups, seconds, statuses)
        if self._tel_on:
            # merge consecutive all-200 fast-path groups into one
            # per-connection telemetry window: a couple of list adds
            # per group, with the real work (SLO classification, span,
            # access log) amortised over _TEL_MERGE_REQUESTS requests.
            # Pipelined reads often carry only 1-2 requests, so even a
            # ~1 us per-group cost would blow the 5% overhead budget.
            tel = proto.tel
            if tel is not None and n_ok == n_requests:
                tel[1] += n_ok
                tel[2] += seconds
                if tel[1] >= _TEL_MERGE_REQUESTS:
                    self._emit_tel(proto)
            else:
                self._tel_boundary(proto, requests, statuses, seconds, epoch)

    def _tel_boundary(
        self,
        proto: _HttpProtocol,
        requests: List[Tuple[bytes, bytes, bytes, bytes]],
        statuses: Dict[int, int],
        seconds: float,
        epoch: int,
    ) -> None:
        """Telemetry-window boundary: first group on a connection, a
        status mix, or a full window. Flushes the pending window, then
        either starts a fresh one (all-200 group) or emits this group
        unmerged with its own status mix (rare: errors, 503s)."""
        self._emit_tel(proto)
        n_requests = len(requests)
        __, target, __b, head = requests[0]
        if statuses.get(200, 0) == n_requests:
            # [epoch, n_requests, seconds, head, target]
            proto.tel = [epoch, n_requests, seconds, head, target]
            return
        n_bad = 0
        for status, n in statuses.items():
            if status >= 500:
                n_bad += n
        worst = max(statuses) if statuses else 200
        self._emit(
            proto, head, target, n_requests, seconds, worst, epoch, n_bad,
            method=requests[0][0],
        )

    def _emit_tel(self, proto: _HttpProtocol) -> None:
        """Emit a connection's pending merged telemetry window."""
        tel = proto.tel
        if tel is None:
            return
        proto.tel = None
        epoch, n_requests, seconds, head, target = tel
        self._emit(proto, head, target, n_requests, seconds, 200, epoch, 0)

    def _emit(
        self,
        proto: _HttpProtocol,
        head: bytes,
        target: bytes,
        n_requests: int,
        seconds: float,
        worst: int,
        epoch: int,
        n_bad: int,
        method: bytes = b"GET",
    ) -> None:
        """Feed one (possibly merged) request window into SLO/trace/log.

        ``seconds`` is the summed serving time of the window's groups
        (busy time, not wall span); ``target`` is the window's first
        request target — representative, since windows only merge
        uniform fast-path traffic.
        """
        slo = self.slo
        if slo is not None:
            per_request = seconds / n_requests if n_requests else 0.0
            slo.record(per_request, True, n_requests - n_bad)
            slo.record(per_request, False, n_bad)

        if self.tracer is None and not self.access_log_sample:
            return
        path = target.partition(b"?")[0].decode("latin-1")
        cached = proto.tp_cache
        if cached is not None and cached[0] == head:
            trace_id, parent_id = cached[1]
        else:
            parsed = None
            # canonical lowercase first; the .lower() copy only on miss
            idx = head.find(b"traceparent:")
            if idx < 0:
                idx = head.lower().find(b"traceparent:")
            if idx >= 0:
                end = head.find(b"\r\n", idx)
                raw = head[idx + 12 : end if end >= 0 else len(head)]
                parsed = parse_traceparent(raw)
            if parsed is not None:
                trace_id, parent_id, __sampled = parsed
            else:
                # absent or malformed header: assign a fresh trace
                header = make_traceparent()
                trace_id, parent_id = header.split("-")[1], header.split("-")[2]
            proto.tp_cache = (head, (trace_id, parent_id))

        tracer = self.tracer
        if tracer is not None:
            tracer.record(
                "serve.request_group",
                seconds,
                endpoint=path,
                status=worst,
                epoch=epoch,
                n_requests=n_requests,
                trace_id=trace_id,
                parent_id=parent_id,
            )
            roots = tracer.roots
            if len(roots) > _TRACE_ROOTS_CAP:
                del roots[: len(roots) - _TRACE_ROOTS_CAP]

        if self.access_log_sample and random.random() < self.access_log_sample:
            self._access_logger.info(
                "%s %s status=%d n=%d lookups_ms=%.3f epoch=%d trace_id=%s",
                method.decode("latin-1"),
                path,
                worst,
                n_requests,
                seconds * 1e3,
                epoch,
                trace_id,
            )

    def _handle_slow(self, method: bytes, target: bytes, body: bytes, snap):
        """Everything that is not a single-segment GET; returns
        ``(response_bytes, n_lookups_served, status)``."""
        try:
            path, __, query = target.partition(b"?")
            if method == b"GET":
                if path == b"/lookup":
                    return self._lookup_point(query, snap), 1, 200
                if path == b"/batch":
                    params = parse_qs(query.decode("utf-8", "replace"))
                    raw = params.get("segments", [""])[0]
                    ids = [int(s) for s in raw.split(",") if s != ""]
                    response, served = self._batch(ids, snap)
                    return response, served, 200
                if path == b"/epoch":
                    return _json_response(self._epoch_info(snap)), 0, 200
                if path == b"/quality":
                    payload = dict(snap.index.quality())
                    payload["epoch"] = snap.epoch
                    return _json_response(payload), 0, 200
                if path.startswith(b"/region/"):
                    return self._region(path, snap), 0, 200
                if path == b"/healthz":
                    return _json_response({"ok": True, "epoch": snap.epoch}), 0, 200
                if path == b"/metrics":
                    return self._metrics_response(snap), 0, 200
                if path == b"/slo":
                    return self._slo_response(), 0, 200
                if path == b"/trace":
                    return self._trace_response(), 0, 200
                if path == b"/dashboard":
                    return self._dashboard_response(snap), 0, 200
                return (
                    _error_response(404, f"no route {path.decode('latin-1')}"),
                    0,
                    404,
                )
            if method == b"POST":
                if path == b"/lookup/batch":
                    payload = json.loads(body or b"null")
                    if isinstance(payload, dict):
                        payload = payload.get("segments")
                    if not isinstance(payload, list):
                        raise ServeError(
                            'batch body must be {"segments": [...]} or an id list'
                        )
                    response, served = self._batch(payload, snap)
                    return response, served, 200
                return (
                    _error_response(404, f"no route {path.decode('latin-1')}"),
                    0,
                    404,
                )
            return _error_response(405, "only GET and POST are served"), 0, 405
        except ServeError as exc:
            return _error_response(400, str(exc)), 0, 400
        except (ValueError, json.JSONDecodeError) as exc:
            return _error_response(400, f"bad request: {exc}"), 0, 400

    def _lookup_point(self, query: bytes, snap) -> bytes:
        params = parse_qs(query.decode("utf-8", "replace"))
        if "x" not in params or "y" not in params:
            raise ServeError("lookup needs ?segment=ID or ?x=..&y=..")
        found = snap.index.lookup_point(float(params["x"][0]), float(params["y"][0]))
        found["epoch"] = snap.epoch
        return _json_response(found)

    def _batch(self, ids: List[int], snap) -> Tuple[bytes, int]:
        regions = snap.index.regions_of(ids)
        body = (
            b'{"epoch":%d,"regions":%s}'
            % (snap.epoch, json.dumps(regions.tolist()).encode())
        )
        self.registry.observe("serve.batch_size", len(ids))
        return _JSON_HEAD % len(body) + body, len(ids)

    def _region(self, path: bytes, snap) -> bytes:
        parts = path.split(b"/")  # ['', 'region', R, ('boundary',)]
        try:
            region = int(parts[2])
        except (IndexError, ValueError):
            raise ServeError("region id must be an integer") from None
        if len(parts) >= 4 and parts[3] == b"boundary":
            boundary = snap.index.region_boundary(region)
            return _json_response(
                {
                    "epoch": snap.epoch,
                    "region": region,
                    "n_boundary_segments": int(boundary.size),
                    "segments": boundary.tolist(),
                }
            )
        info = snap.index.region_info(region)
        info["epoch"] = snap.epoch
        return _json_response(info)

    # ------------------------------------------------------------------
    # metrics
    def _account(
        self,
        n_requests: int,
        n_lookups: int,
        seconds: float,
        statuses: Optional[Dict[int, int]] = None,
    ) -> None:
        now = time.monotonic()
        self._n_requests += n_requests
        self._n_lookups += n_lookups
        window = self._qps_window
        window.append((now, n_lookups))
        cutoff = now - _QPS_WINDOW_S
        while window and window[0][0] < cutoff:
            window.popleft()
        if n_requests:
            # every request in the group waited for the whole group
            per_request = seconds / n_requests
            self._latencies.append(seconds)
            self.registry.observe("serve.request_latency_s", per_request)
            self.registry.observe("serve.group_size", n_requests)
        self.registry.inc("serve.requests", n_requests)
        if n_lookups:
            self.registry.inc("serve.lookups", n_lookups)
        if statuses:
            for status, count in statuses.items():
                self.registry.inc(f"serve.responses[status={status}]", count)

    def _flush_windows(self) -> None:
        """Emit every connection's pending merge window.

        Every reader — ``/slo``, ``/metrics``, ``/trace``,
        ``/dashboard`` — calls this first (on the serving loop, which
        owns the windows), so it sees every request answered before it.
        """
        for proto in list(self._protos):
            if proto.tel is not None:
                self._emit_tel(proto)

    def _refresh_gauges(self, snap) -> None:
        registry = self.registry
        registry.set_gauge("serve.epoch", float(snap.epoch))
        registry.set_gauge("serve.epoch_age_s", snap.age_s)
        registry.set_gauge("serve.epoch_pins", float(snap.pins))
        registry.set_gauge("serve.connections", float(self._connections))
        registry.set_gauge(
            "serve.uptime_s", time.monotonic() - self._started_monotonic
        )
        window = self._qps_window
        if window:
            span = max(time.monotonic() - window[0][0], 1e-9)
            registry.set_gauge(
                "serve.qps", sum(n for __, n in window) / span
            )
        else:
            registry.set_gauge("serve.qps", 0.0)
        latencies = list(self._latencies)
        p50, p99 = quantiles_from_latencies(latencies, (0.5, 0.99))
        registry.set_gauge("serve.latency_p50_s", p50)
        registry.set_gauge("serve.latency_p99_s", p99)
        if self.slo is not None:
            self.slo.export_gauges(registry)
        try:
            from repro.obs.profile import sample_process_gauges

            sample_process_gauges(registry)
        except Exception:  # pragma: no cover - resource module quirks
            pass

    def _metrics_response(self, snap) -> bytes:
        self._flush_windows()
        self._refresh_gauges(snap)
        extra = {"run_id": self.run_id} if self.run_id else None
        text = render_prometheus(self.registry, extra_labels=extra)
        body = text.encode("utf-8")
        head = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; "
            b"charset=utf-8\r\nContent-Length: %d\r\n\r\n" % len(body)
        )
        return head + body

    def _slo_response(self) -> bytes:
        if self.slo is None:
            return _json_response({"enabled": False})
        self._flush_windows()
        return _json_response(self.slo.to_dict())

    def _trace_response(self) -> bytes:
        """Recent request-group spans (debug endpoint for propagation tests)."""
        if self.tracer is None:
            return _json_response({"enabled": False, "spans": []})
        self._flush_windows()
        roots = list(self.tracer.roots)[-200:]
        return _json_response(
            {"enabled": True, "spans": [span.to_dict() for span in roots]}
        )

    def _dashboard_response(self, snap) -> bytes:
        self._flush_windows()
        self._refresh_gauges(snap)
        body = self._dashboard_html(snap).encode("utf-8")
        head = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        return head + body

    def _dashboard_html(self, snap) -> str:
        esc = _html.escape
        parts: List[str] = [
            "<!DOCTYPE html><html><head><meta charset='utf-8'>",
            "<title>repro live dashboard</title>",
            "<style>body{font-family:sans-serif;margin:24px;color:#222}"
            "table{border-collapse:collapse;margin:8px 0}"
            "td,th{border:1px solid #ccc;padding:4px 10px;font-size:13px;"
            "text-align:right}th{background:#f4f4f4}"
            "h2{margin-top:28px}.burning{color:#c00;font-weight:bold}"
            ".ok{color:#2a7}.series{display:inline-block;margin:6px 14px 6px 0;"
            "vertical-align:top;font-size:12px}</style></head><body>",
            "<h1>repro live dashboard</h1>",
            f"<p>epoch <b>{snap.epoch}</b> (age {snap.age_s:.1f}s) &middot; "
            f"{snap.index.n_segments} segments &middot; k={snap.index.k} "
            f"&middot; {self._n_requests} requests served</p>",
        ]

        parts.append("<h2>SLOs</h2>")
        if self.slo is None:
            parts.append("<p>no SLO tracker attached (start with "
                         "<code>--slo-latency-ms</code>)</p>")
        else:
            parts.append(
                "<table><tr><th>objective</th><th>state</th>"
                "<th>budget left</th><th>windows (burn rate)</th></tr>"
            )
            for entry in self.slo.evaluate():
                name = esc(entry["objective"]["name"])
                state = (
                    "<span class='burning'>BURNING</span>"
                    if entry["burning"]
                    else "<span class='ok'>ok</span>"
                )
                windows = ", ".join(
                    f"{w['window_s']:g}s: {w['burn_rate']:.2f}"
                    for w in entry["windows"]
                )
                parts.append(
                    f"<tr><td>{name}</td><td>{state}</td>"
                    f"<td>{entry['budget_remaining']:.1%}</td>"
                    f"<td>{esc(windows)}</td></tr>"
                )
            parts.append("</table>")

        parts.append("<h2>Live series</h2>")
        if self.live is None:
            parts.append("<p>no live recorder attached (start with "
                         "<code>--record-live</code>)</p>")
        else:
            parts.append(live_section(self.live.to_dict())[0])

        parts.append("<h2>Epoch genealogy</h2>")
        if self.genealogy is None:
            parts.append("<p>no genealogy recorder attached</p>")
        else:
            history = self.genealogy.to_dict()["epochs"][-15:]
            if not history:
                parts.append("<p>no epochs recorded yet</p>")
            else:
                parts.append(
                    "<table><tr><th>epoch</th><th>regions</th><th>churn</th>"
                    "<th>update s</th><th>ANS</th><th>GDBI</th>"
                    "<th>splits</th><th>merges</th></tr>"
                )
                for entry in history:
                    lineage = entry.get("lineage", {})
                    parts.append(
                        "<tr>"
                        f"<td>{entry['epoch']}</td>"
                        f"<td>{entry['n_regions']}</td>"
                        f"<td>{entry['churn']}</td>"
                        f"<td>{entry['update_s']:.4f}</td>"
                        f"<td>{entry.get('ans', float('nan')):.4f}</td>"
                        f"<td>{entry.get('gdbi', float('nan')):.4f}</td>"
                        f"<td>{lineage.get('splits', 0)}</td>"
                        f"<td>{lineage.get('merges', 0)}</td>"
                        "</tr>"
                    )
                parts.append("</table>")
        parts.append("</body></html>")
        return "".join(parts)

    def _epoch_info(self, snap) -> Dict[str, Any]:
        return {
            "epoch": snap.epoch,
            "age_s": snap.age_s,
            "n_segments": snap.index.n_segments,
            "k": snap.index.k,
            "pins": snap.pins,
            "pinned_epochs": self.store.pinned_epochs(),
            "meta": snap.meta,
            "n_requests": self._n_requests,
            "n_lookups": self._n_lookups,
        }
