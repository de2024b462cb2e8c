"""Tests for the campaign supervisor: failure isolation, crash recovery,
poison quarantine, adaptive concurrency, checkpoint/resume, signals."""

import json
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.runner import (
    CampaignInterrupted,
    Engine,
    RunFailure,
    RunSpec,
    Supervisor,
)
from repro.runner.outcome import (
    DEADLOCK, ERROR, OK, QUARANTINED, SANITIZER,
)
from repro.runner.backends import drain_finished, expire_deadlines
from repro.runner.spec import canonical_json

SMALL = dict(n_cores=4, scale=0.05)

#: where the chaos worker keeps its crash-once/hang-once markers
CHAOS_DIR_ENV = "REPRO_TEST_CHAOS_DIR"


def small_spec(seed=0, **kwargs):
    merged = dict(SMALL)
    merged.update(kwargs)
    return RunSpec.benchmark("sctr", "glock", seed=seed, **merged)


def chaos_spec(behavior, idx=0):
    return RunSpec(workload="synth", hc_kind="tatas",
                   workload_params={"behavior": behavior, "idx": idx})


def chaos_execute(spec):
    """Module-level (picklable) worker exhibiting the whole taxonomy.

    ``crash_once``/``hang_once`` leave a marker file in the scratch dir
    named by $REPRO_TEST_CHAOS_DIR, so only their first attempt misbehaves.
    """
    params = dict(spec.workload_params)
    behavior = params.get("behavior", "ok")
    marker = (Path(os.environ[CHAOS_DIR_ENV])
              / f"{behavior}-{params.get('idx', 0)}.marker")
    if behavior == "poison":
        os.kill(os.getpid(), signal.SIGKILL)
    elif behavior == "crash_once" and not marker.exists():
        marker.write_text("x")
        os.kill(os.getpid(), signal.SIGKILL)
    elif behavior == "hang_once" and not marker.exists():
        marker.write_text("x")
        time.sleep(120)
    elif behavior == "slow":
        time.sleep(1.0)
    elif behavior == "error":
        raise ValueError("synthetic failure")
    elif behavior == "deadlock":
        from repro.sim.kernel import SimDeadlockError
        raise SimDeadlockError("synthetic deadlock")
    elif behavior == "sanitizer":
        from repro.verify.invariants import InvariantViolation
        raise InvariantViolation("synthetic violation")
    return f"ok:{behavior}:{params.get('idx', 0)}"


def _fast_supervisor(engine, **kwargs):
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_cap", 0.02)
    kwargs.setdefault("sleep_fn", lambda s: None)
    kwargs.setdefault("install_signal_handlers", False)
    return Supervisor(engine, **kwargs)


def _result_bytes(result):
    """Canonical byte serialization of everything a RunResult measured."""
    return canonical_json({
        "makespan": result.makespan,
        "cycles_by_category": result.cycles_by_category,
        "per_core_cycles": result.per_core_cycles,
        "instructions": result.instructions,
        "counters": result.counters,
        "traffic": result.traffic,
        "byte_hops": result.byte_hops,
    }).encode()


# --------------------------------------------------------------------- #
# seeded chaos: the acceptance scenario
# --------------------------------------------------------------------- #
def test_collect_mode_survives_seeded_chaos(tmp_path, monkeypatch):
    """Every spec gets an outcome, classified correctly, nothing raises."""
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path / "scratch"))
    (tmp_path / "scratch").mkdir()
    specs = [
        chaos_spec("ok", 0),
        chaos_spec("poison"),
        chaos_spec("crash_once"),
        chaos_spec("ok", 1),
        chaos_spec("hang_once"),
        chaos_spec("error"),
        chaos_spec("deadlock"),
        chaos_spec("sanitizer"),
    ]
    engine = Engine(jobs=2, timeout=2.0, retries=1,
                    execute_fn=chaos_execute,
                    cache_dir=str(tmp_path / "cache"))
    sup = _fast_supervisor(engine, fail_policy="collect",
                           quarantine_threshold=2,
                           manifest_path=tmp_path / "campaign.json")
    result = sup.run_campaign(specs)

    by_behavior = {dict(o.spec.workload_params)["behavior"]: o
                   for o in result.outcomes}
    assert len(result.outcomes) == len(specs)
    assert by_behavior["ok"].status == OK
    assert by_behavior["poison"].status == QUARANTINED
    assert by_behavior["poison"].kills >= sup.quarantine_threshold
    assert by_behavior["crash_once"].status == OK       # recovered
    assert by_behavior["hang_once"].status == OK        # retried after kill
    assert by_behavior["error"].status == ERROR
    assert by_behavior["deadlock"].status == DEADLOCK
    assert by_behavior["sanitizer"].status == SANITIZER
    assert sup.pool_deaths >= 1
    # no timeout_kills assertion here: if poison breaks the pool while
    # hang_once is mid-sleep, the hung worker dies as collateral before
    # its deadline and the marker makes the retry succeed without any
    # timeout firing.  Timeout accounting has its own test below.

    # the manifest agrees with the outcomes
    manifest = json.loads((tmp_path / "campaign.json").read_text())
    assert manifest["pending"] == []
    assert by_behavior["poison"].digest in manifest["quarantined"]
    assert by_behavior["error"].digest in manifest["failed"]
    assert by_behavior["ok"].digest in manifest["done"]

    # quarantine file: digest, spec, kills, last failure
    qfile = json.loads(
        (tmp_path / "campaign.json.quarantine.json").read_text())
    assert [e["digest"] for e in qfile] == [by_behavior["poison"].digest]
    assert qfile[0]["kills"] >= 2
    assert "spec" in qfile[0] and "last_failure" in qfile[0]


def test_timeout_kill_is_counted_and_spec_recovers(tmp_path, monkeypatch):
    """With no poison spec racing it, a hang must hit its deadline."""
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path / "scratch"))
    (tmp_path / "scratch").mkdir()
    specs = [chaos_spec("hang_once"), chaos_spec("ok", 0)]
    engine = Engine(jobs=2, timeout=2.0, retries=1,
                    execute_fn=chaos_execute,
                    cache_dir=str(tmp_path / "cache"))
    sup = _fast_supervisor(engine, fail_policy="collect")
    result = sup.run_campaign(specs)
    assert [o.status for o in result.outcomes] == [OK, OK]
    assert sup.timeout_kills >= 1


def test_abort_policy_raises_run_failure(tmp_path, monkeypatch):
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
    engine = Engine(jobs=2, retries=0, execute_fn=chaos_execute)
    sup = _fast_supervisor(engine, fail_policy="abort")
    with pytest.raises(RunFailure):
        sup.run_campaign([chaos_spec("ok", 0), chaos_spec("error")])


def test_collect_failed_specs_yield_none_runs(tmp_path, monkeypatch):
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
    engine = Engine(jobs=2, retries=0, execute_fn=chaos_execute)
    sup = _fast_supervisor(engine)
    runs = sup.run_specs([chaos_spec("ok", 0), chaos_spec("error"),
                          chaos_spec("ok", 1)])
    assert runs[0] == "ok:ok:0"
    assert runs[1] is None
    assert runs[2] == "ok:ok:1"


# --------------------------------------------------------------------- #
# adaptive admission window + backoff
# --------------------------------------------------------------------- #
def test_window_halves_on_deaths_and_heals_on_landings(tmp_path,
                                                       monkeypatch):
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
    engine = Engine(jobs=4, execute_fn=chaos_execute,
                    cache_dir=str(tmp_path / "cache"))
    sup = _fast_supervisor(engine, halve_after=1, heal_after=2)
    assert sup.window == 4

    # the pool loop reports each death to its policy before rebuilding
    death = BrokenProcessPool("worker died")
    sup.pool_died(["a", "b"], death)
    assert sup.window == 2
    sup.pool_died(["a"], death)  # a sole occupant is blamed, not shed for
    assert sup.window == 2
    sup.pool_died(["a", "b"], death)
    assert sup.window == 1
    assert sup.min_window == 1
    assert sup.pool_deaths == 3 and sup.rebuilds == 3
    assert len(sup.backoff_log) == 3

    # two clean landings (heal_after=2) double the window back
    result = sup.run_campaign([chaos_spec("ok", idx) for idx in range(4)])
    assert sup.window == 4  # 1 -> 2 -> 4 over four landings
    assert all(o.status == OK for o in result.outcomes)


def test_backoff_schedule_is_deterministic_and_capped():
    def recorder(log):
        return log.append

    slept_a, slept_b = [], []
    engine = Engine(jobs=1)
    a = Supervisor(engine, seed=7, backoff_base=0.25, backoff_cap=2.0,
                   backoff_jitter=0.5, sleep_fn=recorder(slept_a),
                   install_signal_handlers=False)
    b = Supervisor(engine, seed=7, backoff_base=0.25, backoff_cap=2.0,
                   backoff_jitter=0.5, sleep_fn=recorder(slept_b),
                   install_signal_handlers=False)
    for sup, slept in ((a, slept_a), (b, slept_b)):
        for deaths in range(1, 7):
            sup._consecutive_deaths = deaths
            sup._backoff()
        assert slept == sup.backoff_log
    assert slept_a == slept_b  # same seed -> same jittered schedule
    assert slept_a[0] >= 0.25              # base delay, jitter only adds
    assert max(slept_a) <= 2.0 * 1.5       # cap * (1 + jitter)
    # exponential envelope: undo the jitter and the raw doubling shows
    assert slept_a[1] > slept_a[0]


# --------------------------------------------------------------------- #
# checkpoint / resume
# --------------------------------------------------------------------- #
def test_kill_resume_equivalence(tmp_path):
    """SIGTERM mid-sweep + resume == one uninterrupted run, byte for byte."""
    specs = [small_spec(seed=seed) for seed in range(6)]
    manifest_path = tmp_path / "campaign.json"
    cache_dir = str(tmp_path / "cache")

    landed = []

    def kill_after_two(sup):
        landed.append(1)
        if len(landed) == 2:
            os.kill(os.getpid(), signal.SIGTERM)

    engine = Engine(jobs=2, cache_dir=cache_dir)
    sup = Supervisor(engine, manifest_path=manifest_path,
                     on_checkpoint=kill_after_two)
    with pytest.raises(CampaignInterrupted):
        sup.run_campaign(specs)

    manifest = json.loads(manifest_path.read_text())
    done_at_interrupt = len(manifest["done"])
    assert 0 < done_at_interrupt < len(specs)
    assert manifest["pending"]  # the rest is still owed

    # resume executes exactly the not-yet-done specs
    engine2 = Engine(jobs=2, cache_dir=cache_dir)
    sup2 = Supervisor(engine2, resume_from=manifest_path)
    result = sup2.run_campaign(specs)
    assert [o.status for o in result.outcomes] == [OK] * len(specs)
    assert engine2.stats.executed == len(specs) - done_at_interrupt
    assert engine2.stats.disk_hits == done_at_interrupt
    manifest = json.loads(manifest_path.read_text())
    assert manifest["pending"] == []
    assert len(manifest["done"]) == len(specs)

    # ... and the assembled sweep is byte-identical to an untouched run
    engine3 = Engine(jobs=2, cache_dir=str(tmp_path / "fresh-cache"))
    fresh = engine3.run_specs(specs)
    resumed = result.runs()
    assert all(r is not None for r in resumed)
    for r, f in zip(resumed, fresh):
        assert _result_bytes(r.result) == _result_bytes(f.result)
        assert r.makespan == f.makespan


def test_resume_skips_quarantined_and_executes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path / "scratch"))
    (tmp_path / "scratch").mkdir()
    manifest_path = tmp_path / "campaign.json"
    cache_dir = str(tmp_path / "cache")
    specs = [chaos_spec("ok", 0), chaos_spec("ok", 1), chaos_spec("poison")]

    engine = Engine(jobs=2, retries=0, execute_fn=chaos_execute,
                    cache_dir=cache_dir)
    sup = _fast_supervisor(engine, quarantine_threshold=1,
                           manifest_path=manifest_path)
    first = sup.run_campaign(specs)
    assert [o.status for o in first.outcomes] == [OK, OK, QUARANTINED]

    engine2 = Engine(jobs=2, retries=0, execute_fn=chaos_execute,
                     cache_dir=cache_dir)
    sup2 = _fast_supervisor(engine2, resume_from=manifest_path)
    again = sup2.run_campaign(specs)
    assert [o.status for o in again.outcomes] == [OK, OK, QUARANTINED]
    assert engine2.stats.executed == 0  # everything from cache or parked
    assert again.outcomes[2].error  # quarantine reason carried over


def test_manifest_version_gate(tmp_path):
    bad = tmp_path / "old.json"
    bad.write_text(json.dumps({"version": 999}))
    from repro.runner import CampaignManifest
    with pytest.raises(ValueError, match="version"):
        CampaignManifest.load(bad)


def test_interrupt_flushes_manifest_before_raising(tmp_path):
    engine = Engine(jobs=2, cache_dir=str(tmp_path / "cache"))
    sup = Supervisor(engine, manifest_path=tmp_path / "m.json",
                     install_signal_handlers=False)
    sup._interrupt = signal.SIGTERM
    with pytest.raises(CampaignInterrupted) as excinfo:
        sup.run_campaign([small_spec()])
    assert excinfo.value.signum == signal.SIGTERM
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert len(manifest["pending"]) == 1  # checkpointed, not lost


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
def test_campaign_exit_codes():
    from repro.cli import _campaign_exit_code
    from repro.runner.outcome import RunOutcome
    spec = small_spec()
    ok = RunOutcome(spec, "d0", "ok", run="x")
    failed = RunOutcome(spec, "d1", "error", error="boom")
    parked = RunOutcome(spec, "d2", "quarantined", error="poison")
    assert _campaign_exit_code([ok]) == 0
    assert _campaign_exit_code([ok, failed]) == 2
    assert _campaign_exit_code([ok, failed, parked]) == 3
    assert _campaign_exit_code([ok, parked]) == 3


def test_cli_run_failure_exits_2_with_one_line_summary(capsys, monkeypatch,
                                                       tmp_path):
    from repro import cli
    from repro.experiments import fig08_exectime

    def explode(**kwargs):
        spec = small_spec()
        raise RunFailure(spec, ValueError("synthetic"))

    monkeypatch.setattr(fig08_exectime, "run", explode)
    monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
    code = cli.main(["experiment", "fig08", "--scale", "0.05",
                     "--cores", "4", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAILED" in out
    assert "Traceback" not in out
    assert "ValueError('synthetic')" in out


def test_cli_resume_bad_manifest_is_clean_error(capsys, tmp_path):
    """A missing or version-mismatched --resume manifest exits 2 with a
    one-line error, not a raw traceback."""
    from repro.cli import main
    code = main(["experiment", "fig08",
                 "--resume", str(tmp_path / "nope.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert "cannot resume" in out

    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"version": 999}))
    code = main(["experiment", "fig08", "--resume", str(stale)])
    out = capsys.readouterr().out
    assert code == 2
    assert "cannot resume" in out


# --------------------------------------------------------------------- #
# review regressions: interrupts, pool-death drains, cancel races
# --------------------------------------------------------------------- #
class _StubFuture:
    """Just enough Future surface for drain/deadline unit tests."""

    def __init__(self, result=None, exc=None, done=True):
        self._result, self._exc, self._done = result, exc, done

    def done(self):
        return self._done

    def exception(self):
        return self._exc

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._result

    def cancel(self):
        return False


def test_interrupt_during_suspect_phase_propagates(tmp_path, monkeypatch):
    """CampaignInterrupted (a RuntimeError) raised while pool-death
    victims await their solo re-runs must abort the campaign, not be
    misfiled as a suspect spec's 'error' failure."""
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
    engine = Engine(jobs=2, retries=0, execute_fn=chaos_execute)
    sup = _fast_supervisor(engine, manifest_path=tmp_path / "m.json")

    def signal_during_backoff(delay):
        sup._interrupt = signal.SIGTERM

    sup.sleep_fn = signal_during_backoff  # runs right after the pool death
    specs = [chaos_spec("poison"), chaos_spec("slow", 0)]
    with pytest.raises(CampaignInterrupted):
        sup.run_campaign(specs)
    assert sup.pool_deaths == 1
    assert sup.outcomes == []          # no bogus failure outcome
    assert engine.stats.failures == 0  # no retry budget charged
    assert engine.stats.retries == 0
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert sorted(manifest["pending"]) == sorted(s.digest() for s in specs)


def test_interrupt_reaches_a_hung_pool_run_without_timeout(tmp_path,
                                                           monkeypatch):
    """With no engine timeout the pool loop still polls ``tick``: an
    interrupt during a hung run raises promptly with the manifest
    flushed, and the hung worker is killed."""
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
    engine = Engine(backend="process-pool", execute_fn=chaos_execute)
    sup = _fast_supervisor(engine, manifest_path=tmp_path / "m.json")
    spec = chaos_spec("hang_once")
    interrupted_at = []

    def interrupt():
        interrupted_at.append(time.monotonic())
        sup._interrupt = signal.SIGTERM

    timer = threading.Timer(0.5, interrupt)
    timer.start()
    try:
        with pytest.raises(CampaignInterrupted):
            sup.run_campaign([spec])
    finally:
        timer.cancel()
    assert time.monotonic() - interrupted_at[0] < 1.0
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["pending"] == [spec.digest()]


def test_pool_death_does_not_discard_finished_sibling():
    """drain_finished lands completed-successful futures; only truly
    lost specs are charged as victims/suspects."""
    landed = {}
    finished = _StubFuture(result="run-a")
    pending = _StubFuture(done=False)
    errored = _StubFuture(exc=ValueError("boom"))
    inflight = {finished: "a", pending: "b", errored: "c"}
    deadlines = {finished: None, pending: None, errored: None}
    victims = drain_finished(inflight, deadlines,
                             lambda d, r: landed.__setitem__(d, r))
    assert landed == {"a": "run-a"}
    assert sorted(victims) == ["b", "c"]
    assert inflight == {} and deadlines == {}


def test_deadline_cancel_race_leaves_completed_future_in_flight():
    """A future that completes between the done() check and cancel()
    must not be classified stuck (which would SIGKILL the pool and
    discard its result); it stays in flight for the next wait()."""

    class _RacyFuture(_StubFuture):
        def __init__(self):
            super().__init__(result="late", done=False)
            self.done_calls = 0

        def done(self):
            self.done_calls += 1
            return self.done_calls > 1  # completes right after the check

    class _QueuedFuture(_StubFuture):
        def cancel(self):
            return True  # never started: cancellable, worker unharmed

    racy = _RacyFuture()
    queued = _QueuedFuture(done=False)
    running = _StubFuture(done=False)
    past = time.monotonic() - 1.0
    inflight = {racy: "racy", queued: "queued", running: "running"}
    deadlines = dict.fromkeys(inflight, past)
    expired, stuck = expire_deadlines(inflight, deadlines, time.monotonic())
    assert stuck == ["running"]   # only a running worker forces a kill
    assert sorted(expired) == ["queued", "running"]  # racy not charged
    assert racy in inflight and racy in deadlines    # collected next wait()
    assert list(inflight) == [racy]


def test_cli_collect_campaign_smoke(capsys, tmp_path, monkeypatch):
    """--fail-policy collect runs a real harness under the supervisor."""
    from repro.cli import main
    monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
    manifest = tmp_path / "m.json"
    code = main(["experiment", "fig08", "--scale", "0.05", "--cores", "4",
                 "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                 "--fail-policy", "collect", "--manifest", str(manifest)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[campaign]" in out
    assert manifest.exists()

    # resume of a finished campaign executes nothing
    code = main(["experiment", "fig08", "--scale", "0.05", "--cores", "4",
                 "--jobs", "2", "--resume", str(manifest)])
    out = capsys.readouterr().out
    assert code == 0
    assert "executed=0" in out


def test_manifest_records_backend_and_cache_counts(tmp_path):
    """The campaign manifest carries the engine's execution identity."""
    import json

    engine = Engine(cache_dir=str(tmp_path / "cache"))
    manifest = tmp_path / "m.json"
    supervisor = Supervisor(engine, fail_policy="collect",
                            manifest_path=str(manifest))
    supervisor.run_campaign([RunSpec.benchmark("sctr", "mcs", n_cores=4,
                                               scale=0.05)])
    data = json.loads(manifest.read_text())
    assert data["campaign"]["backend"] == "inline"
    assert data["stats"]["executed"] == 1
    assert data["stats"]["disk_hits"] == 0
    assert data["stats"]["memo_hits"] == 0


def test_supervisor_delegates_to_explicit_inline_backend(tmp_path):
    """An explicit non-pool backend executes the batch; taxonomy,
    manifests and fail-policy still apply on top."""
    from repro.runner.backends import InlineBackend

    calls = []

    class SpyBackend(InlineBackend):
        def execute(self, todo, engine, **hooks):
            calls.append(len(todo))
            return super().execute(todo, engine, **hooks)

    engine = Engine(backend=SpyBackend())
    supervisor = Supervisor(engine, fail_policy="collect")
    result = supervisor.run_campaign(
        [RunSpec.benchmark("sctr", kind, n_cores=4, scale=0.05)
         for kind in ("mcs", "glock")])
    assert calls == [2]
    assert all(outcome.ok for outcome in result.outcomes)


def test_supervisor_collects_outcomes_from_delegated_backend(tmp_path):
    """Failures through a delegated backend still classify per spec."""
    def explode(spec):
        raise RuntimeError("boom")

    engine = Engine(backend="inline", execute_fn=explode)
    supervisor = Supervisor(engine, fail_policy="collect")
    result = supervisor.run_campaign(
        [RunSpec.benchmark("sctr", "mcs", n_cores=4, scale=0.05)])
    (outcome,) = result.outcomes
    assert not outcome.ok
    assert outcome.status == "error"
    assert "boom" in outcome.error


# --------------------------------------------------------------------- #
# one execution loop: every backend counts attempts the same way
# --------------------------------------------------------------------- #
def fail_twice_execute(spec):
    """Module-level worker: each spec fails twice, then succeeds; an
    ``error`` spec always fails (tries are counted in marker files)."""
    params = dict(spec.workload_params)
    if params.get("behavior") == "error":
        raise ValueError("synthetic failure")
    scratch = Path(os.environ[CHAOS_DIR_ENV])
    tries = len(list(scratch.glob(f"try-{params['idx']}-*")))
    if tries < 2:
        (scratch / f"try-{params['idx']}-{tries}").write_text("x")
        raise ValueError(f"transient failure #{tries + 1}")
    return f"ok:{params['idx']}"


@pytest.fixture(params=["inline", "process-pool", "remote"])
def backend_engine(request, tmp_path, monkeypatch):
    """``Engine(retries=2)`` running ``fail_twice_execute`` per backend."""
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
    if request.param != "remote":
        yield Engine(retries=2, backend=request.param,
                     execute_fn=fail_twice_execute)
        return
    from repro.runner.remote import RemoteBackend, WorkerServer
    server = WorkerServer(execute_fn=fail_twice_execute)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.address
    try:
        yield Engine(retries=2,
                     backend=RemoteBackend([f"{host}:{port}"]))
    finally:
        server.shutdown()


def test_attempts_counted_alike_on_every_backend(backend_engine, tmp_path):
    """``attempts`` is retries + 1 for an exhausted spec and for one that
    succeeded on its last try, whichever backend ran it."""
    engine = backend_engine
    manifest = tmp_path / "m.json"
    sup = _fast_supervisor(engine, fail_policy="collect",
                           manifest_path=manifest)
    failing, flaky = chaos_spec("error"), chaos_spec("flaky", 7)
    result = sup.run_campaign([failing, flaky])
    bad, good = result.outcomes
    assert bad.status == ERROR
    assert bad.attempts == engine.retries + 1
    assert good.status == OK and good.run == "ok:7"
    assert good.attempts == engine.retries + 1
    failed = json.loads(manifest.read_text())["failed"]
    assert failed[failing.digest()]["attempts"] == engine.retries + 1
    assert engine.stats.retries == 2 * engine.retries
    assert engine.stats.failures == 1
