"""Remote execution: socket-protocol workers sharing the result cache.

A **worker** (``repro-sim worker --port P --cache-dir D``) is a small
TCP server wrapping :func:`repro.runner.engine.execute_spec`.  It speaks
a length-prefixed pickle frame protocol, checks its digest-keyed
:class:`~repro.runner.cache.ResultCache` before simulating, and stores
fresh results back — so any number of workers pointed at one shared
cache directory (NFS, a shared volume) collectively behave like one
warm cache.

The :class:`RemoteBackend` is the matching
:class:`~repro.runner.backends.ExecutionBackend`: it supplies a
:class:`RemoteExecutor` (one dispatch thread per worker pulling
``(future, spec)`` pairs from a shared queue), one slot per worker, and
shutdown as the kill.  The shared loop in
:meth:`~repro.runner.backends.ExecutionBackend.execute` owns the rest:
the retry budget, the overall ``timeout`` (from the moment a worker
takes the spec; an overrun is charged without a breaker strike and
cancelled, closing only its own connection), the admission window, and
result landing.

**Leases and heartbeats** make the backend self-healing.  Every
dispatched spec holds a *lease*: the worker must produce a frame — a
periodic ``{"heartbeat": true}`` while it simulates, or the final
result — within ``lease_timeout`` seconds, or its future fails with
:class:`LeaseExpired` and the loop re-dispatches the spec to a healthy
worker.  Heartbeats distinguish *slow-but-alive* (lease keeps
extending; only the engine's overall ``timeout`` budget can expire it)
from *dead or hung* (silence; lease breaks).  A worker that breaks
leases or drops connections trips a per-worker **circuit breaker**: it
is quarantined for an exponentially growing backoff, then probed
half-open with a cheap no-op (``ping``) before readmission;
``max_strikes`` consecutive failures retire it for the rest of the
batch, and the next batch probes it half-open again.  When every worker
is retired, the specs still owed fail uncharged with
:class:`NoLiveWorkers`.

Specs travel as their JSON-safe ``to_dict()`` form (version-checked by
``RunSpec.from_dict``); results travel as pickled
:class:`~repro.runner.engine.BenchmarkRun` payloads, exactly what a
process-pool worker would have returned.  Simulations are deterministic
pure functions of their spec, so remote results are byte-identical to
inline ones.

The protocol is trusted-network plumbing (pickle over TCP, no
authentication) — bind workers to loopback or a private interconnect,
never a public interface.
"""

from __future__ import annotations

import logging
import os
import pickle
import queue
import socket
import socketserver
import struct
import threading
import time
from concurrent.futures import Executor, Future
from concurrent.futures._base import CANCELLED, RUNNING
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.backends import ExecutionBackend, Unretryable
from repro.runner.cache import CacheCorruption, ResultCache
from repro.runner.spec import RunSpec

__all__ = ["PROTOCOL_VERSION", "LeaseExpired", "NoLiveWorkers",
           "RemoteBackend", "RemoteExecutor", "RemoteRunError",
           "WorkerClient", "WorkerDied", "WorkerHealth", "WorkerServer",
           "parse_address"]

log = logging.getLogger("repro.runner")

#: bump when the frame or request/response layout changes
PROTOCOL_VERSION = 2

_HEADER = struct.Struct(">I")
#: refuse frames beyond this size (corrupt header / wrong peer)
_MAX_FRAME = 256 * 1024 * 1024

#: how often a quarantined dispatch thread re-checks its backoff (seconds)
_POLL = 0.05


class RemoteRunError(RuntimeError):
    """A spec failed *inside* a worker (the worker itself is healthy).

    ``kind`` carries the worker-side classification from
    :func:`repro.runner.outcome.classify_failure` so campaign outcome
    taxonomy survives the wire even though the original exception
    object does not.
    """

    def __init__(self, kind: str, error: str) -> None:
        super().__init__(f"remote {kind}: {error}")
        self.kind = kind
        self.error = error


class WorkerDied(ConnectionError):
    """The worker's connection failed mid-request (process died, was
    killed, or vanished from the network) — distinguishable from a
    worker-side spec failure (:class:`RemoteRunError`) and from a bare
    ``EOFError``/unpickling crash on a truncated result frame."""

    def __init__(self, address: str, detail: str,
                 cause: Optional[BaseException] = None) -> None:
        super().__init__(f"worker {address} died: {detail}")
        self.address = address
        self.detail = detail
        self.cause = cause


class LeaseExpired(WorkerDied):
    """No frame (heartbeat or result) within the lease window: the
    worker is hung or silently dead, and its spec has been reclaimed."""

    def __init__(self, address: str, lease_timeout: float) -> None:
        super().__init__(address, f"no heartbeat within the "
                                  f"{lease_timeout:g}s lease window")
        self.lease_timeout = lease_timeout


class NoLiveWorkers(Unretryable, ConnectionError):
    """Every worker is retired: the spec cannot run in this batch."""

    def __init__(self, workers: int) -> None:
        super().__init__(f"no live workers left (of {workers})")


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` (or ``":port"`` / bare port) -> ``(host, port)``."""
    text = address.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad worker address {address!r}; "
                         f"expected host:port") from None
    if not 0 < port < 65536:
        raise ValueError(f"bad worker port in {address!r}")
    return host, port


# ---------------------------------------------------------------------- #
# frame protocol
# ---------------------------------------------------------------------- #
def send_frame(sock: socket.socket, payload: Dict) -> None:
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(data)) + data)


def recv_frame(sock: socket.socket) -> Optional[Dict]:
    """One frame, or ``None`` on a clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise ConnectionError(f"oversized frame ({length} bytes); "
                              f"wrong peer or corrupt stream")
    data = _recv_exact(sock, length, eof_ok=False)
    return pickle.loads(data)


def _recv_exact(sock: socket.socket, n: int, *,
                eof_ok: bool) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------- #
# the worker (server) side
# ---------------------------------------------------------------------- #
class WorkerServer:
    """A ``repro-sim worker``: executes specs shipped over TCP.

    While a spec simulates, the worker emits a ``{"heartbeat": true}``
    frame every ``heartbeat_interval`` seconds so the coordinator's
    lease keeps extending for slow-but-alive runs (``0`` disables
    heartbeats — the run executes synchronously and a long spec will
    look identical to a hang).

    Args:
        host / port: bind address (``port=0`` picks a free port;
            read it back from :attr:`address`).
        cache_dir: digest-keyed result cache shared with other workers
            and coordinators; ``None`` executes every request.
        execute_fn: spec runner, overridable for tests.
        heartbeat_interval: seconds between heartbeat frames during a
            run (default 1.0).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_dir: Optional[str] = None,
                 execute_fn: Optional[Callable] = None,
                 heartbeat_interval: float = 1.0) -> None:
        from repro.runner.engine import execute_spec
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.execute_fn = execute_fn or execute_spec
        self.heartbeat_interval = heartbeat_interval
        self.stats = {"requests": 0, "executed": 0, "cache_hits": 0,
                      "errors": 0, "heartbeats": 0}
        self._stats_lock = threading.Lock()
        self._draining = threading.Event()
        self._inflight = 0
        self._idle = threading.Condition()
        worker = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # one connection, many requests
                while True:
                    try:
                        request = recv_frame(self.request)
                    except (ConnectionError, OSError, pickle.PickleError,
                            EOFError):
                        return
                    if request is None:
                        return
                    try:
                        reply, action = worker._handle_request(request,
                                                               self.request)
                    except Exception as exc:  # never kill the worker
                        reply, action = {"ok": False, "kind": "error",
                                         "error": repr(exc)}, "keep"
                    try:
                        send_frame(self.request, reply)
                    except (ConnectionError, OSError):
                        return  # client vanished; the cache kept the result
                    if action == "shutdown":
                        threading.Thread(target=worker.shutdown,
                                         daemon=True).start()
                        return
                    if action == "close" or worker._draining.is_set():
                        return

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._server.server_address[:2]

    def serve_forever(self) -> None:
        self._server.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        """Stop at once (the classic ``shutdown`` op / test teardown)."""
        self._server.shutdown()
        self._server.server_close()

    # graceful drain (SIGINT/SIGTERM on ``repro-sim worker``) ---------- #
    def begin_drain(self) -> None:
        """Stop admitting work; safe to call from a signal handler.

        New ``run`` requests are refused with ``kind="draining"``, the
        accept loop stops (``serve_forever`` returns), and the spec
        currently simulating is left to finish and commit to the cache
        — :meth:`wait_drained` picks up from there.
        """
        self._draining.set()
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def wait_drained(self, grace: Optional[float] = None) -> bool:
        """Block until in-flight requests finish, then close the socket.

        Returns ``True`` when the worker drained cleanly within
        ``grace`` seconds (``None`` waits forever).
        """
        with self._idle:
            drained = self._idle.wait_for(lambda: self._inflight == 0,
                                          timeout=grace)
        self._server.server_close()
        return drained

    # ------------------------------------------------------------------ #
    def _handle_request(self, request: Dict,
                        sock: socket.socket) -> Tuple[Dict, str]:
        """One request -> ``(reply, action)`` with action in
        ``keep`` / ``close`` / ``shutdown``."""
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "role": "repro-sim-worker",
                    "protocol": PROTOCOL_VERSION, "pid": os.getpid(),
                    "draining": self._draining.is_set()}, "keep"
        if op == "stats":
            with self._stats_lock:
                return {"ok": True, "stats": dict(self.stats)}, "keep"
        if op == "shutdown":
            return {"ok": True}, "shutdown"
        if op == "run":
            if self._draining.is_set():
                return {"ok": False, "kind": "draining",
                        "error": "worker is draining and admits no new "
                                 "specs"}, "close"
            return self._run_with_heartbeats(request, sock), "keep"
        return {"ok": False, "kind": "error",
                "error": f"unknown op {op!r}"}, "keep"

    def _run_with_heartbeats(self, request: Dict,
                             sock: socket.socket) -> Dict:
        """Execute a run while streaming heartbeats on its connection.

        The run executes on a helper thread; this (handler) thread owns
        the socket and emits one heartbeat frame per interval until the
        result is ready.  If a heartbeat send fails the client is gone
        — the run still finishes so its result lands in the shared
        cache for whoever re-dispatches the spec.
        """
        with self._idle:
            self._inflight += 1
        try:
            if not self.heartbeat_interval or self.heartbeat_interval <= 0:
                return self._serve_run(request)
            box: Dict[str, Dict] = {}

            def work() -> None:
                box["reply"] = self._serve_run(request)

            thread = threading.Thread(target=work, name="worker-run",
                                      daemon=True)
            thread.start()
            beating = True
            while True:
                thread.join(self.heartbeat_interval if beating else None)
                if not thread.is_alive():
                    break
                if beating:
                    try:
                        send_frame(sock, {"heartbeat": True})
                        with self._stats_lock:
                            self.stats["heartbeats"] += 1
                    except (ConnectionError, OSError):
                        beating = False  # client gone; finish for the cache
            return box.get("reply", {"ok": False, "kind": "error",
                                     "error": "worker run thread died"})
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    def _serve_run(self, request: Dict) -> Dict:
        with self._stats_lock:
            self.stats["requests"] += 1
        try:
            spec = RunSpec.from_dict(request["spec"])
        except Exception as exc:
            with self._stats_lock:
                self.stats["errors"] += 1
            return {"ok": False, "kind": "error",
                    "error": f"undecodable spec: {exc!r}"}
        digest = spec.digest()
        if self.cache is not None:
            try:
                run = self.cache.load(digest)
            except CacheCorruption:
                run = None
            if run is not None:
                with self._stats_lock:
                    self.stats["cache_hits"] += 1
                return {"ok": True, "run": run, "cached": True}
        try:
            run = self.execute_fn(spec)
        except Exception as exc:
            from repro.runner.outcome import classify_failure
            with self._stats_lock:
                self.stats["errors"] += 1
            return {"ok": False, "kind": classify_failure(exc),
                    "error": repr(exc)}
        with self._stats_lock:
            self.stats["executed"] += 1
        if self.cache is not None:
            self.cache.store(digest, run, spec.to_dict())
        return {"ok": True, "run": run, "cached": False}


# ---------------------------------------------------------------------- #
# the coordinator (client) side
# ---------------------------------------------------------------------- #
class WorkerClient:
    """One persistent connection to a worker.

    Every request carries a socket timeout: ``default_timeout`` for the
    control ops (ping/stats/shutdown), and a per-frame lease window for
    ``run`` (see :meth:`run_spec`) — a worker can hang without ever
    hanging the coordinator.
    """

    def __init__(self, address: str, connect_timeout: float = 10.0,
                 default_timeout: float = 30.0) -> None:
        self.address = address
        self.default_timeout = default_timeout
        host, port = parse_address(address)
        self._sock = socket.create_connection((host, port),
                                              timeout=connect_timeout)
        self._sock.settimeout(None)

    def request(self, payload: Dict,
                timeout: Optional[float] = None) -> Dict:
        """Send one frame, return the first non-heartbeat reply.

        ``timeout`` bounds each frame (defaults to ``default_timeout``;
        silence raises ``socket.timeout``); a connection failure
        mid-request raises :class:`WorkerDied` rather than a bare
        ``EOFError``/``ConnectionError``/unpickling crash.
        """
        return self._exchange(payload, self.default_timeout
                              if timeout is None else timeout)

    def ping(self, timeout: float = 10.0) -> Dict:
        return self.request({"op": "ping"}, timeout=timeout)

    def stats(self) -> Dict:
        return self.request({"op": "stats"})["stats"]

    def run_spec(self, spec: RunSpec, timeout: Optional[float] = None,
                 lease_timeout: Optional[float] = None,
                 on_heartbeat: Optional[Callable[[], None]] = None) -> object:
        """Execute ``spec`` remotely under a heartbeat-extended lease.

        - ``timeout`` is an optional *overall* wall-clock budget for the
          run; exceeding it raises ``TimeoutError`` even while
          heartbeats keep arriving (the execution loop passes none).
        - ``lease_timeout`` bounds the silence between frames; a worker
          producing neither a heartbeat nor a result within it raises
          :class:`LeaseExpired` (hung or silently dead).
        - a dropped connection (including mid-result-frame) raises
          :class:`WorkerDied`; a spec failure *inside* a healthy worker
          raises :class:`RemoteRunError`.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        try:
            reply = self._exchange({"op": "run", "spec": spec.to_dict()},
                                   lease_timeout, deadline, on_heartbeat)
        except socket.timeout:
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"exceeded {timeout}s budget on "
                                   f"{self.address}") from None
            raise LeaseExpired(self.address, lease_timeout
                               if lease_timeout is not None
                               else timeout or 0.0) from None
        if not reply.get("ok"):
            raise RemoteRunError(reply.get("kind", "error"),
                                 reply.get("error", "unknown remote error"))
        return reply["run"]

    def _exchange(self, payload: Dict, frame_timeout: Optional[float],
                  deadline: Optional[float] = None,
                  on_heartbeat: Optional[Callable[[], None]] = None) -> Dict:
        """Send ``payload``; return the first reply that is no heartbeat.

        Each frame must arrive within ``frame_timeout`` and before the
        monotonic ``deadline``, or ``socket.timeout`` is raised.
        """
        self._sock.settimeout(frame_timeout)
        try:
            self._send(payload)
            while True:
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise socket.timeout("overall budget exhausted")
                    self._sock.settimeout(left if frame_timeout is None
                                          else min(frame_timeout, left))
                reply = self._recv()
                if not (isinstance(reply, dict) and reply.get("heartbeat")):
                    return reply
                if on_heartbeat is not None:
                    on_heartbeat()
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:  # pragma: no cover - socket already dead
                pass

    # low-level frame IO with WorkerDied wrapping ---------------------- #
    def _send(self, payload: Dict) -> None:
        try:
            send_frame(self._sock, payload)
        except (ConnectionError, OSError) as exc:
            if isinstance(exc, socket.timeout):
                raise
            raise WorkerDied(self.address, f"send failed: {exc!r}",
                             exc) from exc

    def _recv(self) -> Dict:
        try:
            reply = recv_frame(self._sock)
        except socket.timeout:
            raise
        except (ConnectionError, OSError, EOFError,
                pickle.PickleError) as exc:
            # includes a worker dying mid-result-frame: a truncated
            # stream surfaces as WorkerDied, never an unpickling crash
            raise WorkerDied(self.address, f"receive failed: {exc!r}",
                             exc) from exc
        if reply is None:
            raise WorkerDied(self.address, "closed the connection")
        return reply

    def close(self) -> None:
        """Close the connection, waking any thread blocked on it."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------- #
# per-worker health: the circuit breaker state machine
# ---------------------------------------------------------------------- #
#: breaker states
HEALTHY, QUARANTINED, HALF_OPEN, RETIRED = ("healthy", "quarantined",
                                            "half-open", "retired")


@dataclass
class WorkerHealth:
    """One worker's breaker state and telemetry (see ``/status``)."""

    address: str
    state: str = HEALTHY
    consecutive_failures: int = 0
    lease_breaks: int = 0       # leases that expired on this worker
    deaths: int = 0             # connection failures / dead mid-run
    completed: int = 0          # specs this worker landed
    heartbeats: int = 0         # heartbeat frames received
    probes: int = 0             # half-open readmission probes sent
    quarantines: int = 0        # times the breaker tripped
    backoff_until: float = 0.0  # monotonic instant quarantine ends
    current: Optional[str] = None   # digest currently leased, if any

    def snapshot(self) -> Dict[str, object]:
        return {
            "address": self.address,
            "state": self.state,
            "completed": self.completed,
            "lease_breaks": self.lease_breaks,
            "deaths": self.deaths,
            "heartbeats": self.heartbeats,
            "quarantines": self.quarantines,
            "probes": self.probes,
            "consecutive_failures": self.consecutive_failures,
            "current": self.current,
        }


class _RemoteFuture(Future):
    """A remote spec's future: cancelling it while it runs closes its
    worker connection, abandoning only that run (the worker still
    finishes it for the shared cache)."""

    client: Optional[WorkerClient] = None   # set before it runs

    def cancel(self) -> bool:
        with self._condition:
            if self._state != RUNNING:
                return super().cancel()
            self._state = CANCELLED
            self._condition.notify_all()
        self._invoke_callbacks()
        self.client.close()     # wakes the dispatch thread blocked on it
        return True

    def settle(self, run, error: Optional[BaseException]) -> bool:
        """Resolve with the worker's answer; ``False`` if cancelled first."""
        with self._condition:
            if self.cancelled():
                return False
            if error is None:
                self.set_result(run)
            else:
                self.set_exception(error)
            return True


class RemoteExecutor(Executor):
    """One dispatch thread per worker, pulling ``(future, spec)`` pairs.

    Each future resolves with the run or with the worker's exception:
    :class:`RemoteRunError` (a sick spec on a healthy worker),
    :class:`LeaseExpired`, :class:`WorkerDied` or another I/O error; all
    but the first strike the worker's breaker, unless the run was
    cancelled or abandoned by :meth:`shutdown`.  ``submit(fn, spec)``
    ignores ``fn``: workers run their own ``execute_spec``.
    """

    def __init__(self, backend: "RemoteBackend") -> None:
        self._backend = backend
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()   # (future, spec) | None
        self._stopped = False
        self._clients: Dict[str, WorkerClient] = {}
        self._live = len(backend.addresses)
        for address in backend.addresses:
            health = backend.health[address]
            if health.state == RETIRED:
                # a new batch probes a retired worker half-open again
                health.state = HALF_OPEN
            threading.Thread(target=self._dispatch, args=(address,),
                             name=f"remote-{address}", daemon=True).start()

    def submit(self, fn, /, spec: RunSpec) -> Future:
        future = _RemoteFuture()
        with self._lock:
            if self._stopped:
                raise RuntimeError("cannot schedule new futures after "
                                   "shutdown")
            if self._live:
                self._queue.put((future, spec))
            else:
                future.set_exception(
                    NoLiveWorkers(len(self._backend.addresses)))
        return future

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        """Cancel queued specs and close every connection, abandoning
        the runs in flight (their workers still finish them for the
        shared cache).  Never blocks: dispatch threads are daemons."""
        with self._lock:
            self._stopped = True
            for future, _ in self._take_queued():
                future.cancel()
            clients = list(self._clients.values())
            for _ in self._backend.addresses:
                self._queue.put(None)   # wakes an idle dispatch thread
        for client in clients:
            client.close()              # wakes a thread blocked on a run

    def _take_queued(self) -> List[Tuple[Future, RunSpec]]:
        """Empty the queue (caller holds the lock)."""
        items = []
        try:
            while True:
                items.append(self._queue.get(block=False))
        except queue.Empty:
            return [item for item in items if item is not None]

    def _dispatch(self, address: str) -> None:
        backend = self._backend
        health = backend.health[address]

        def on_heartbeat() -> None:
            health.heartbeats += 1

        try:
            while not self._stopped and health.state != RETIRED:
                if health.state != HEALTHY:     # quarantined or half-open
                    if time.monotonic() < health.backoff_until:
                        time.sleep(_POLL)
                    elif not backend._probe(health):
                        backend._trip(health, "half-open probe failed")
                    continue
                item = self._queue.get()
                if item is None:
                    return                      # shut down
                future, spec = item
                client = self._clients.get(address)
                if client is None:
                    try:
                        client = WorkerClient(
                            address, connect_timeout=backend.connect_timeout)
                    except OSError as exc:
                        # unreachable: hand the spec back uncharged (the
                        # worker never saw it) and strike
                        self._queue.put(item)
                        backend._trip(health, f"unreachable: {exc}")
                        continue
                    with self._lock:
                        self._clients[address] = client
                future.client = client
                if not future.set_running_or_notify_cancel():
                    continue
                health.current = spec.digest()
                run, error = None, None
                try:
                    run = client.run_spec(spec,
                                          lease_timeout=backend.lease_timeout,
                                          on_heartbeat=on_heartbeat)
                    health.completed += 1
                    health.consecutive_failures = 0
                except (RemoteRunError, OSError, pickle.PickleError,
                        EOFError) as exc:
                    error = exc
                    # the breaker learns of it before the loop does; a run
                    # abandoned by a cancel or shutdown strikes nothing
                    strike = (None if self._stopped or future.cancelled()
                              else _diagnose(health, exc))
                    if strike is not None:
                        backend._trip(health, strike)
                health.current = None
                suspect = error is not None and not isinstance(
                    error, RemoteRunError)
                if not future.settle(run, error) or suspect:
                    self._disconnect(address)   # or a cancel closed it
        finally:
            self._disconnect(address)
            with self._lock:
                self._live -= 1
                if not self._live and not self._stopped:
                    # the last worker retired: fail what is still owed
                    for future, _ in self._take_queued():
                        future.settle(None, NoLiveWorkers(
                            len(backend.addresses)))

    def _disconnect(self, address: str) -> None:
        with self._lock:
            client = self._clients.pop(address, None)
        if client is not None:
            client.close()


def _diagnose(health: WorkerHealth, exc: BaseException) -> Optional[str]:
    """Count a failed run against its worker; return the strike, if any."""
    if isinstance(exc, RemoteRunError):
        health.consecutive_failures = 0   # the worker answered: it is fine
        return None
    if isinstance(exc, LeaseExpired):
        health.lease_breaks += 1
        why = "lease expired"
    elif isinstance(exc, WorkerDied):
        health.deaths += 1
        why = "connection died"
    else:
        health.deaths += 1
        why = f"I/O error: {exc!r}"
    log.warning("[remote] worker %s failed its run (%s): %s",
                health.address, why, exc)
    return why


class RemoteBackend(ExecutionBackend):
    """Execute specs on ``repro-sim worker`` processes over sockets.

    Its executor is a :class:`RemoteExecutor` with one slot per worker;
    the retry budget, the overall ``timeout`` and the admission window
    belong to the shared execution loop.

    Args:
        workers: worker addresses (``host:port``).  One dispatch thread
            per address pulls specs from a shared queue, so faster
            workers naturally take more of the batch.
        connect_timeout: seconds to wait for a worker to accept.
        lease_timeout: max silence (no heartbeat, no result) before a
            dispatched spec's lease breaks and it is reclaimed for
            re-dispatch.  Keep this a few multiples of the workers'
            ``heartbeat_interval``.
        breaker_base / breaker_cap: quarantine backoff after the n-th
            consecutive failure is ``min(cap, base * 2**(n-1))``
            seconds, followed by a half-open ``ping`` probe.
        max_strikes: consecutive failures (lease breaks, deaths,
            unreachable connects, failed probes) after which a worker
            is retired for the rest of the batch; the next batch probes
            it half-open again.
    """

    name = "remote"

    def __init__(self, workers: Sequence[str],
                 connect_timeout: float = 10.0,
                 lease_timeout: float = 10.0,
                 breaker_base: float = 0.25,
                 breaker_cap: float = 8.0,
                 max_strikes: int = 4) -> None:
        addresses = [w.strip() for w in workers if w and w.strip()]
        if not addresses:
            raise ValueError("remote backend needs at least one worker "
                             "address (host:port)")
        for address in addresses:
            parse_address(address)  # fail fast on typos
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if max_strikes < 1:
            raise ValueError("max_strikes must be >= 1")
        self.addresses = addresses
        self.connect_timeout = connect_timeout
        self.lease_timeout = lease_timeout
        self.breaker_base = breaker_base
        self.breaker_cap = breaker_cap
        self.max_strikes = max_strikes
        self.health: Dict[str, WorkerHealth] = {
            address: WorkerHealth(address) for address in addresses}

    def health_snapshot(self) -> List[Dict[str, object]]:
        """Per-worker breaker state + telemetry (service ``/status``)."""
        return [self.health[address].snapshot()
                for address in self.addresses]

    # what the execution loop needs ------------------------------------ #
    def slots(self, engine) -> int:
        return len(self.addresses)

    def executor(self, engine, slots: int) -> Executor:
        return RemoteExecutor(self)

    # the circuit breaker ---------------------------------------------- #
    def _trip(self, health: WorkerHealth, why: str) -> None:
        """One strike: quarantine with exponential backoff, or retire."""
        health.consecutive_failures += 1
        health.current = None
        if health.consecutive_failures >= self.max_strikes:
            health.state = RETIRED
            log.warning("[remote] retiring worker %s after %d "
                        "consecutive failures (%s)", health.address,
                        health.consecutive_failures, why)
            return
        health.quarantines += 1
        backoff = min(self.breaker_cap,
                      self.breaker_base
                      * (2 ** (health.consecutive_failures - 1)))
        health.backoff_until = time.monotonic() + backoff
        health.state = QUARANTINED
        log.warning("[remote] quarantining worker %s for %.2gs (%s; "
                    "strike %d/%d)", health.address, backoff, why,
                    health.consecutive_failures, self.max_strikes)

    def _probe(self, health: WorkerHealth) -> bool:
        """Half-open readmission: a cheap no-op must succeed."""
        health.state = HALF_OPEN
        health.probes += 1
        try:
            client = WorkerClient(health.address,
                                  connect_timeout=self.connect_timeout)
            try:
                client.ping(timeout=min(5.0, self.lease_timeout))
            finally:
                client.close()
        except (WorkerDied, OSError):
            return False
        health.state = HEALTHY
        return True
