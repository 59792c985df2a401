"""Open-loop lookup generator for the serving workloads.

Runs in its own process so that it never competes with the server for
the GIL::

    python3 perfbench/loadgen.py '<json spec>'

and prints one JSON document with a result per phase. Requests arrive
as a Poisson process drawn from the spec's seed and are sent on
schedule whether or not earlier ones were answered (open loop), spread
round-robin over ``connections`` keep-alive sockets with HTTP/1.1
pipelining. Every latency is timed from the request's *due* time, so
a server stall also charges the requests that queued behind it, and
the generator's own lateness is reported beside it.

A phase either runs at a fixed offered rate (``low``, ``high``) or is
one step of the search for the highest rate whose p99 stays within
``limit_ms`` without a growing backlog. A phase's p99 is the median of
the p99s of its windows (:data:`WINDOW_S` by default) (see :func:`windowed_p99`). The search grows the rate by
``factor`` until a step fails twice, then bisects geometrically for the
remaining steps.
"""

from __future__ import annotations

import gc
import json
import os
import random
import selectors
import socket
import statistics
import sys
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes

_SPIN_S = 0.002
WINDOW_S = 0.25

_REQUEST = b"GET /lookup?segment=%d HTTP/1.1\r\nHost: bench\r\n\r\n"


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (NaN when empty)."""
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-int(q * 1_000_000) * len(sorted_values) // 1_000_000))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def arrivals(rate: float, seconds: float, seed: int) -> List[float]:
    """Poisson arrival offsets in ``[0, seconds)`` at ``rate`` per second."""
    rng = random.Random(seed)
    out: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def connect(port: int, connections: int, host: str = "127.0.0.1") -> List[socket.socket]:
    socks = []
    for __ in range(connections):
        sock = socket.create_connection((host, port), timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        socks.append(sock)
    return socks


def run_phase(
    socks: List[socket.socket],
    rate: float,
    seconds: float,
    seed: int,
    n_segments: int,
    limit_ms: float,
    sample_every: int = 0,
    drain_s: float = 2.0,
    window_s: float = WINDOW_S,
) -> Dict:
    """Offer ``rate`` lookups/s for ``seconds``; return the phase record.

    Latency is ``receive time - due time`` per request. A request still
    unanswered ``drain_s`` after the last one fell due counts as failed,
    as does any non-200 response. ``sample_every`` > 0 keeps every n-th
    ``[segment asked, segment answered, region, epoch]`` so the caller
    can check it against the label vector of the epoch it reports.
    """
    rng = random.Random(seed ^ 0x5EED)
    offsets = arrivals(rate, seconds, seed)
    segments = [rng.randrange(n_segments) for __ in offsets]
    n = len(offsets)
    n_conn = len(socks)
    pending: List[deque] = [deque() for __ in socks]  # (due, segment)
    outbuf = [bytearray() for __ in socks]
    inbuf = [b"" for __ in socks]
    latencies: List[Tuple[float, float]] = []  # (due, latency)
    late: List[float] = []
    samples: List[List[int]] = []
    first_seen: Dict[int, float] = {}
    failed = 0
    answered = 0
    backlog_max = 0
    backlog_end = 0
    sel = selectors.DefaultSelector()
    for idx, sock in enumerate(socks):
        sel.register(sock, selectors.EVENT_READ, idx)

    t0 = clock() + 0.01
    due = [t0 + off for off in offsets]
    deadline = t0 + seconds + drain_s
    i = 0
    while True:
        now = clock()
        while i < n and due[i] <= now:
            c = i % n_conn
            outbuf[c] += _REQUEST % segments[i]
            pending[c].append((due[i], segments[i]))
            late.append(now - due[i])
            i += 1
            if i == n:
                # a queue that would take more than twice the limit to
                # clear at the end of the sending window is a growing
                # backlog
                backlog_end = sum(len(p) for p in pending)
        for c, sock in enumerate(socks):
            if outbuf[c]:
                try:
                    sent = sock.send(outbuf[c])
                except BlockingIOError:
                    sent = 0
                del outbuf[c][:sent]
        in_flight = sum(len(p) for p in pending)
        if in_flight > backlog_max:
            backlog_max = in_flight
        if i >= n and in_flight == 0:
            break
        if now > deadline:
            failed += in_flight
            break
        # wake-ups overshoot by milliseconds under load, so poll rather
        # than sleep when the next request is due within _SPIN_S
        wait = (due[i] - clock() - _SPIN_S) if i < n else 0.05
        if any(outbuf):
            wait = min(wait, 0.0005)
        for key, __ in sel.select(max(0.0, wait)):
            c = key.data
            try:
                data = socks[c].recv(1 << 16)
            except BlockingIOError:
                continue
            t_recv = clock()
            if not data:
                failed += len(pending[c])
                pending[c].clear()
                continue
            buf = inbuf[c] + data if inbuf[c] else data
            pos = 0
            while True:
                head_end = buf.find(b"\r\n\r\n", pos)
                if head_end < 0:
                    break
                cl_at = buf.find(b"Content-Length: ", pos, head_end)
                length = int(buf[cl_at + 16 : buf.find(b"\r\n", cl_at, head_end + 2)])
                body_end = head_end + 4 + length
                if body_end > len(buf):
                    break
                status = buf[pos + 9 : pos + 12]
                body = buf[head_end + 4 : body_end]
                pos = body_end
                if not pending[c]:
                    failed += 1  # an answer nobody asked for
                    continue
                due_t, segment = pending[c].popleft()
                if status != b"200":
                    failed += 1
                    continue
                answered += 1
                latencies.append((due_t, t_recv - due_t))
                epoch = int(body[body.rfind(b":") + 1 : -1])
                if epoch not in first_seen:
                    first_seen[epoch] = t_recv
                if sample_every and answered % sample_every == 0:
                    got = int(body[11 : body.find(b",")])
                    region = int(body[body.find(b'"region":') + 9 : body.find(b',"epoch"')])
                    samples.append([segment, got, region, epoch])
            inbuf[c] = buf[pos:]
    sel.close()

    lat_ms = sorted(x * 1000.0 for __, x in latencies)
    late_ms = sorted(x * 1000.0 for x in late)
    window_p99 = windowed_p99(latencies, t0, failed, window_s)
    return {
        "rate": rate,
        "seconds": seconds,
        "offered": n,
        "answered": answered,
        "failed": failed,
        "p50_ms": quantile(lat_ms, 0.50),
        "p99_ms": window_p99,
        "p99_ms_whole_phase": quantile(lat_ms, 0.99),
        "late_ms_p99": quantile(late_ms, 0.99),
        "backlog_max": backlog_max,
        "backlog_end": backlog_end,
        "passed": bool(
            n > 0
            and failed == 0
            and window_p99 <= limit_ms
            and backlog_end <= max(2 * rate * limit_ms / 1000.0, n_conn)
        ),
        "first_seen": {str(e): t for e, t in first_seen.items()},
        "samples": samples,
    }


def windowed_p99(
    latencies: Sequence[Tuple[float, float]], t0: float, failed: int, window_s: float = WINDOW_S
) -> float:
    """Median over ``window_s`` windows (by due time) of each window's p99, in ms.

    A single hiccup of the host then moves one window, not the run's
    figure; a stall that recurs (an update every window) moves them all.
    Failed requests miss every limit, so any failure makes it infinite.
    """
    if failed or not latencies:
        return float("inf")
    windows: Dict[int, List[float]] = {}
    for due, latency in latencies:
        windows.setdefault(int((due - t0) / window_s), []).append(latency * 1000.0)
    return float(statistics.median(quantile(sorted(w), 0.99) for w in windows.values()))


def search_rates(start: float, factor: float, steps: int):
    """Generator of offered rates for the max-rate search.

    Send each step's pass/fail back in; the generator grows the rate
    by ``factor`` until a failure, then bisects geometrically between
    the best pass and the lowest failure. When ``start`` itself fails
    the search walks down by ``factor`` instead. A failure counts only
    when a second step at the same rate fails too: a host stall well
    below the knee would otherwise cap the whole search.
    """
    best_pass: Optional[float] = None
    lowest_fail: Optional[float] = None
    failed_once: Optional[float] = None
    rate = start
    for __ in range(steps):
        passed = yield rate
        if passed:
            best_pass = rate if best_pass is None else max(best_pass, rate)
        elif rate != failed_once:
            failed_once = rate
            continue  # try the same rate again
        else:
            lowest_fail = rate if lowest_fail is None else min(lowest_fail, rate)
        if lowest_fail is None:
            rate = best_pass * factor
        elif best_pass is None:
            rate = lowest_fail / factor
        else:
            rate = (best_pass * lowest_fail) ** 0.5
    return best_pass


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    # a full collection over the per-request records would stall the
    # sending loop for milliseconds, and the stall would be charged to
    # the server as latency
    gc.disable()
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {int(spec["cpu"])})
    socks = connect(int(spec["port"]), int(spec["connections"]))
    seed = int(spec["seed"])
    common = dict(
        n_segments=int(spec["n_segments"]),
        limit_ms=float(spec["limit_ms"]),
        drain_s=float(spec.get("drain_s", 2.0)),
        window_s=float(spec.get("window_s", WINDOW_S)),
    )
    phases: List[Dict] = []

    def phase(name: str, rate: float, seconds: float, sample_every: int) -> Dict:
        nonlocal socks
        if socks is None:
            socks = connect(int(spec["port"]), int(spec["connections"]))
        record = run_phase(
            socks, rate, seconds, seed * 1000 + len(phases),
            sample_every=sample_every, **common,
        )
        record["name"] = name
        phases.append(record)
        if record["failed"]:
            # late answers would be matched to the next phase's
            # requests: start it on fresh sockets
            for sock in socks:
                sock.close()
            socks = None
        return record

    max_rate = None
    try:
        if spec.get("warmup_s"):
            # first connections and code paths, before anything is timed
            phase("warmup", float(spec["phases"][0]["rate"]), float(spec["warmup_s"]), 0)
        for fixed in spec["phases"]:
            phase(
                fixed["name"], float(fixed["rate"]), float(fixed["seconds"]),
                int(spec.get("sample_every", 0)),
            )
        search = spec.get("search")
        if search:
            gen = search_rates(
                float(search["start"]), float(search["factor"]), int(search["steps"])
            )
            rate = next(gen)
            try:
                while True:
                    record = phase("search", rate, float(search["seconds"]), 0)
                    rate = gen.send(record["passed"])
            except StopIteration as stop:
                max_rate = stop.value
    finally:
        for sock in socks or ():
            sock.close()
    json.dump({"phases": phases, "max_rate": max_rate}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
