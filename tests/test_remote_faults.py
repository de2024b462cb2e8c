"""Fault-tolerance tests for the remote worker protocol and backend:
leases, heartbeats, the circuit breaker, and graceful worker drain."""

import pickle
import socket
import struct
import threading
import time

import pytest

from repro.runner import Engine, RunFailure, RunSpec
from repro.runner.engine import execute_spec
from repro.runner.cache import ResultCache
from repro.runner.remote import (LeaseExpired, RemoteBackend, RemoteRunError,
                                 WorkerClient, WorkerDied, WorkerServer)

SPEC = RunSpec.benchmark("sctr", "mcs", n_cores=8, scale=0.05)
SPECS = [RunSpec.benchmark("sctr", "mcs", n_cores=8, scale=0.05),
         RunSpec.benchmark("sctr", "glock", n_cores=8, scale=0.05),
         RunSpec.benchmark("mctr", "mcs", n_cores=8, scale=0.05)]


class _FakeWorker:
    """A scriptable TCP peer: hangs, truncates frames, or stays silent."""

    def __init__(self, behaviour):
        self.behaviour = behaviour    # called with (conn) per connection
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = "127.0.0.1:%d" % self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self.behaviour, args=(conn,),
                             daemon=True).start()

    def close(self):
        self._stop.set()
        self._sock.close()


def _read_frame(conn):
    header = b""
    while len(header) < 4:
        chunk = conn.recv(4 - len(header))
        if not chunk:
            return None
        header += chunk
    (length,) = struct.unpack(">I", header)
    data = b""
    while len(data) < length:
        data += conn.recv(length - len(data))
    return pickle.loads(data)


@pytest.fixture()
def live_worker(tmp_path):
    server = WorkerServer(cache_dir=str(tmp_path / "wcache"),
                          heartbeat_interval=0.1)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server, "%s:%d" % server.address
    server.shutdown()


# ---------------------------------------------------------------------- #
# WorkerClient: timeouts, WorkerDied, LeaseExpired
# ---------------------------------------------------------------------- #
def test_control_requests_carry_a_default_timeout():
    silent = _FakeWorker(lambda conn: time.sleep(30))  # accepts, never replies
    try:
        client = WorkerClient(silent.address, default_timeout=0.3)
        with pytest.raises(socket.timeout):
            client.ping(timeout=0.3)
        client.close()
        # and without an explicit per-call timeout, default_timeout rules
        client = WorkerClient(silent.address, default_timeout=0.3)
        start = time.monotonic()
        with pytest.raises(socket.timeout):
            client.request({"op": "stats"})
        assert time.monotonic() - start < 5.0
        client.close()
    finally:
        silent.close()


def test_worker_dying_mid_result_frame_raises_worker_died():
    def truncate(conn):
        request = _read_frame(conn)
        assert request["op"] == "run"
        # header promises 4096 bytes, then the "process" dies mid-frame
        conn.sendall(struct.pack(">I", 4096) + b"\x80\x04partial")
        conn.close()

    fake = _FakeWorker(truncate)
    try:
        client = WorkerClient(fake.address)
        with pytest.raises(WorkerDied) as excinfo:
            client.run_spec(SPEC, timeout=10.0, lease_timeout=10.0)
        assert fake.address in str(excinfo.value)
        assert not isinstance(excinfo.value, LeaseExpired)
        client.close()
    finally:
        fake.close()


def test_worker_closing_connection_raises_worker_died():
    fake = _FakeWorker(lambda conn: (_read_frame(conn), conn.close()))
    try:
        client = WorkerClient(fake.address)
        with pytest.raises(WorkerDied):
            client.run_spec(SPEC, timeout=10.0, lease_timeout=10.0)
        client.close()
    finally:
        fake.close()


def test_silent_worker_breaks_the_lease():
    hang = _FakeWorker(lambda conn: (_read_frame(conn), time.sleep(30)))
    try:
        client = WorkerClient(hang.address)
        start = time.monotonic()
        with pytest.raises(LeaseExpired) as excinfo:
            client.run_spec(SPEC, timeout=30.0, lease_timeout=0.3)
        assert time.monotonic() - start < 5.0
        assert excinfo.value.lease_timeout == 0.3
        client.close()
    finally:
        hang.close()


def test_heartbeats_keep_a_slow_run_alive(live_worker, tmp_path):
    server, address = live_worker
    release = threading.Event()

    def slow(spec):
        release.wait(0.5)   # several heartbeat intervals
        return execute_spec(spec)

    server.execute_fn = slow
    beats = []
    client = WorkerClient(address)
    run = client.run_spec(SPEC, timeout=30.0, lease_timeout=0.25,
                          on_heartbeat=lambda: beats.append(1))
    client.close()
    assert run.result.makespan > 0
    assert len(beats) >= 1   # lease window < run time: only beats saved it


def test_overall_budget_expires_despite_heartbeats(live_worker):
    server, address = live_worker

    def very_slow(spec):
        time.sleep(30)

    server.execute_fn = very_slow
    client = WorkerClient(address)
    with pytest.raises(TimeoutError) as excinfo:
        client.run_spec(SPEC, timeout=0.5, lease_timeout=5.0)
    assert not isinstance(excinfo.value, LeaseExpired)
    client.close()


# ---------------------------------------------------------------------- #
# RemoteBackend: lease reclaim, breaker quarantine + half-open probe
# ---------------------------------------------------------------------- #
def test_broken_lease_reclaims_spec_for_healthy_worker(tmp_path):
    hang = _FakeWorker(lambda conn: (_read_frame(conn), time.sleep(30)))
    good = WorkerServer(cache_dir=str(tmp_path / "wcache"))
    threading.Thread(target=good.serve_forever, daemon=True).start()
    try:
        backend = RemoteBackend([hang.address, "%s:%d" % good.address],
                                lease_timeout=0.3)
        engine = Engine(backend=backend, retries=1)
        runs = engine.run_specs(SPECS)
        assert all(run.result.makespan > 0 for run in runs)
        health = {h["address"]: h for h in backend.health_snapshot()}
        sick = health[hang.address]
        assert sick["lease_breaks"] >= 1
        assert sick["state"] in ("quarantined", "half-open", "retired")
        assert health["%s:%d" % good.address]["completed"] == len(SPECS)
    finally:
        hang.close()
        good.shutdown()


def test_breaker_quarantines_then_readmits_after_probe(tmp_path):
    """First run hangs (lease break -> quarantine); the half-open ping
    probe succeeds and the readmitted worker finishes the batch."""
    fail_first = threading.Event()

    def flaky(spec):
        if not fail_first.is_set():
            fail_first.set()
            time.sleep(30)      # no heartbeats: the lease must break
        return execute_spec(spec)

    server = WorkerServer(cache_dir=str(tmp_path / "wcache"),
                          execute_fn=flaky, heartbeat_interval=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        backend = RemoteBackend(["%s:%d" % server.address],
                                lease_timeout=0.3, breaker_base=0.05)
        engine = Engine(backend=backend, retries=1)
        runs = engine.run_specs(SPECS)
        assert all(run.result.makespan > 0 for run in runs)
        (health,) = backend.health_snapshot()
        assert health["quarantines"] >= 1
        assert health["probes"] >= 1
        assert health["state"] == "healthy"
        assert health["completed"] == len(SPECS)
    finally:
        server.shutdown()


def test_exhausted_retries_surface_the_lease_break(tmp_path):
    hang = _FakeWorker(lambda conn: (_read_frame(conn), time.sleep(30)))
    try:
        backend = RemoteBackend([hang.address], lease_timeout=0.25,
                                breaker_base=0.05, max_strikes=2)
        engine = Engine(backend=backend, retries=0)
        with pytest.raises(RunFailure) as excinfo:
            engine.run_specs([SPEC])
        assert isinstance(excinfo.value.cause, LeaseExpired)
    finally:
        hang.close()


def test_remote_spec_failure_does_not_trip_breaker(tmp_path):
    def explode(spec):
        raise RuntimeError("boom")

    server = WorkerServer(cache_dir=str(tmp_path / "wcache"),
                          execute_fn=explode)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        backend = RemoteBackend(["%s:%d" % server.address])
        engine = Engine(backend=backend, retries=0)
        with pytest.raises(RunFailure) as excinfo:
            engine.run_specs([SPEC])
        assert isinstance(excinfo.value.cause, RemoteRunError)
        (health,) = backend.health_snapshot()
        assert health["state"] == "healthy"       # the spec is sick, not
        assert health["quarantines"] == 0         # the worker
    finally:
        server.shutdown()


def test_expired_overall_budget_is_charged_without_a_strike(live_worker):
    """The loop's deadline expires a slow-but-heartbeating spec: the
    spec is charged, the worker keeps a clean breaker record."""
    server, address = live_worker
    release = threading.Event()

    def very_slow(spec):
        release.wait(30)

    server.execute_fn = very_slow
    backend = RemoteBackend([address], lease_timeout=5.0)
    engine = Engine(backend=backend, timeout=0.5, retries=0)
    try:
        with pytest.raises(RunFailure) as excinfo:
            engine.run_specs([SPEC])
    finally:
        release.set()
    assert isinstance(excinfo.value.cause, TimeoutError)
    assert engine.stats.failures == 1
    (health,) = backend.health_snapshot()
    assert health["state"] == "healthy"
    assert health["quarantines"] == 0
    assert health["consecutive_failures"] == 0


def test_backend_validates_breaker_parameters():
    with pytest.raises(ValueError, match="lease_timeout"):
        RemoteBackend(["127.0.0.1:9"], lease_timeout=0)
    with pytest.raises(ValueError, match="max_strikes"):
        RemoteBackend(["127.0.0.1:9"], max_strikes=0)


# ---------------------------------------------------------------------- #
# graceful worker drain
# ---------------------------------------------------------------------- #
def test_drain_refuses_new_runs():
    server = WorkerServer(cache_dir=None)
    worker_draining = server._handle_request({"op": "ping"}, None)[0]
    assert worker_draining["draining"] is False
    server._draining.set()
    reply, action = server._handle_request(
        {"op": "run", "spec": SPEC.to_dict()}, None)
    assert reply == {"ok": False, "kind": "draining",
                     "error": "worker is draining and admits no new specs"}
    assert action == "close"
    server._server.server_close()


def test_drain_finishes_inflight_spec_and_commits_to_cache(tmp_path):
    cache_dir = tmp_path / "wcache"
    running = threading.Event()

    def slow(spec):
        running.set()
        time.sleep(0.4)
        return execute_spec(spec)

    server = WorkerServer(cache_dir=str(cache_dir), execute_fn=slow,
                          heartbeat_interval=0.1)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    address = "%s:%d" % server.address
    results = {}

    def run():
        client = WorkerClient(address)
        results["run"] = client.run_spec(SPEC, timeout=30.0,
                                         lease_timeout=5.0)
        client.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert running.wait(10.0)
    server.begin_drain()                 # SIGTERM path: admits nothing new
    thread.join(30.0)
    assert not thread.is_alive()
    assert results["run"].result.makespan > 0
    assert server.wait_drained(grace=10.0)
    # the in-flight spec was committed to the shared cache before exit
    cached = ResultCache(cache_dir).load(SPEC.digest())
    assert cached is not None
    assert cached.result.makespan == results["run"].result.makespan


def test_retired_worker_rejoins_on_the_next_batch():
    """Retirement lasts one batch: the next batch probes the worker
    half-open and readmits it once it answers."""
    free = socket.socket()
    free.bind(("127.0.0.1", 0))
    port = free.getsockname()[1]
    free.close()                         # nothing listens there yet
    backend = RemoteBackend([f"127.0.0.1:{port}"], max_strikes=1)
    engine = Engine(backend=backend, retries=2)
    with pytest.raises(RunFailure, match="no live workers"):
        engine.run_specs([SPEC])
    (health,) = backend.health_snapshot()
    assert health["state"] == "retired"
    assert engine.stats.retries == 0     # a spec no worker can run is
    assert engine.stats.failures == 1    # settled, not charged retries

    server = WorkerServer(port=port)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        (run,) = engine.run_specs([SPEC])
        assert run.result.makespan > 0
        (health,) = backend.health_snapshot()
        assert health["state"] == "healthy"
        assert health["probes"] == 1
        assert health["completed"] == 1
    finally:
        server.shutdown()


def test_supervisor_keeps_every_worker_busy_at_jobs_1():
    """The admission window is sized by the worker count, not ``jobs``:
    two workers hold two specs at once even when ``jobs=1``."""
    from repro.runner import Supervisor

    rendezvous = threading.Barrier(2)

    def together(spec):
        rendezvous.wait(timeout=5.0)     # breaks unless both are in flight
        return execute_spec(spec)

    servers = [WorkerServer(execute_fn=together) for _ in range(2)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        engine = Engine(jobs=1, backend=RemoteBackend(
            ["%s:%d" % server.address for server in servers]))
        supervisor = Supervisor(engine, fail_policy="collect",
                                install_signal_handlers=False)
        result = supervisor.run_campaign(SPECS[:2])
        assert [o.status for o in result.outcomes] == ["ok", "ok"]
        assert supervisor.window == 2
    finally:
        for server in servers:
            server.shutdown()


def test_dispatch_threads_land_every_spec_exactly_once():
    """Stress the executor's shared queue: more workers than cores and a
    short switch interval; every spec lands once, none is run twice."""
    import sys

    specs = [RunSpec(workload="synth", hc_kind="tatas",
                     workload_params={"idx": idx}) for idx in range(40)]
    servers = [WorkerServer(heartbeat_interval=0,
                            execute_fn=lambda spec: dict(
                                spec.workload_params)["idx"])
               for _ in range(4)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    backend = RemoteBackend(["%s:%d" % server.address for server in servers])
    engine = Engine(backend=backend)
    box = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread = threading.Thread(
            target=lambda: box.update(runs=engine.run_specs(specs)))
        thread.start()
        thread.join(60.0)
        assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        for server in servers:
            server.shutdown()
    assert box["runs"] == list(range(40))
    assert engine.stats.executed == 40 and engine.stats.retries == 0
    assert sum(h["completed"] for h in backend.health_snapshot()) == 40
    assert sum(server.stats["executed"] for server in servers) == 40


def test_deadline_starts_when_a_worker_takes_the_spec():
    """Specs queued behind the one live worker have not begun their
    budget: with one unreachable address, every spec lands uncharged."""
    free = socket.socket()
    free.bind(("127.0.0.1", 0))
    dead = "127.0.0.1:%d" % free.getsockname()[1]
    free.close()                         # nothing listens there

    def slow(spec):
        time.sleep(0.4)
        return dict(spec.workload_params)["idx"]

    server = WorkerServer(execute_fn=slow)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    specs = [RunSpec(workload="synth", hc_kind="tatas",
                     workload_params={"idx": idx}) for idx in range(4)]
    try:
        engine = Engine(backend=RemoteBackend(
            [dead, "%s:%d" % server.address]), timeout=0.8, retries=0)
        assert engine.run_specs(specs) == [0, 1, 2, 3]
    finally:
        server.shutdown()
    assert engine.stats.retries == 0 and engine.stats.failures == 0


def test_overrun_cancels_only_its_own_run():
    """A spec past its deadline is cancelled alone: the spec running on
    the other worker is not abandoned and run again."""
    release = threading.Event()
    calls = []

    def work(spec):
        idx = dict(spec.workload_params)["idx"]
        calls.append(idx)
        if idx == 0:
            release.wait(30)             # overruns every budget
            raise RuntimeError("released")
        time.sleep(1.0)
        return idx

    servers = [WorkerServer(execute_fn=work) for _ in range(2)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    specs = [RunSpec(workload="synth", hc_kind="tatas",
                     workload_params={"idx": idx}) for idx in range(3)]
    backend = RemoteBackend(["%s:%d" % server.address for server in servers])
    engine = Engine(backend=backend, timeout=1.5, retries=1)
    try:
        with pytest.raises(RunFailure) as excinfo:
            engine.run_specs(specs)
    finally:
        release.set()
        for server in servers:
            server.shutdown()
    assert isinstance(excinfo.value.cause, TimeoutError)
    assert sorted(calls) == [0, 0, 1, 2]     # spec 2 ran exactly once
    assert engine.stats.retries == 1
    assert all(h["quarantines"] == 0 for h in backend.health_snapshot())
