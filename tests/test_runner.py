"""Tests for the experiment engine: RunSpec hashing, the result cache,
parallel execution, retry, and the CLI surface of ``repro.runner``."""

import json
import pickle

import pytest

from repro.runner import (
    Engine,
    MachineSpec,
    ResultCache,
    RunFailure,
    RunSpec,
    active_engine,
    use_engine,
)
from repro.runner.spec import canonical_json

SMALL = dict(n_cores=4, scale=0.05)


def small_spec(name="sctr", hc_kind="glock", **kwargs):
    merged = dict(SMALL)
    merged.update(kwargs)
    return RunSpec.benchmark(name, hc_kind, **merged)


# --------------------------------------------------------------------- #
# spec layer
# --------------------------------------------------------------------- #
def test_digest_is_stable_across_instances():
    a, b = small_spec(), small_spec()
    assert a == b
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64  # sha256 hex


def test_digest_changes_with_any_field():
    base = small_spec()
    assert small_spec(hc_kind="mcs").digest() != base.digest()
    assert small_spec(scale=0.1).digest() != base.digest()
    assert small_spec(n_cores=8).digest() != base.digest()
    assert small_spec(seed=7).digest() != base.digest()


def test_spec_round_trips_through_dict():
    spec = RunSpec(workload="synth", hc_kind="clh",
                   machine=MachineSpec.baseline(8, glock_levels=3),
                   workload_params={"iterations_per_thread": 5}, seed=3)
    again = RunSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.digest() == spec.digest()


def test_workload_params_order_does_not_matter():
    a = RunSpec(workload="synth",
                workload_params={"cs_compute": 1, "iterations_per_thread": 5})
    b = RunSpec(workload="synth",
                workload_params={"iterations_per_thread": 5, "cs_compute": 1})
    assert a.digest() == b.digest()


def test_canonical_json_is_compact_and_sorted():
    text = canonical_json({"b": 1, "a": [2, {"z": 3, "y": 4}]})
    assert text == '{"a":[2,{"y":4,"z":3}],"b":1}'
    assert json.loads(text) == {"b": 1, "a": [2, {"z": 3, "y": 4}]}


def test_spec_is_hashable_and_usable_as_key():
    assert {small_spec(): "x"}[small_spec()] == "x"


# --------------------------------------------------------------------- #
# engine: memo + disk cache
# --------------------------------------------------------------------- #
def test_memo_returns_identical_object():
    engine = Engine()
    first = engine.run_spec(small_spec())
    second = engine.run_spec(small_spec())
    assert first is second
    assert engine.stats.executed == 1
    assert engine.stats.memo_hits == 1


def test_disk_cache_survives_engine_restart(tmp_path):
    spec = small_spec()
    hot = Engine(cache_dir=str(tmp_path))
    baseline = hot.run_spec(spec)
    assert hot.stats.executed == 1

    cold = Engine(cache_dir=str(tmp_path))
    recalled = cold.run_spec(spec)
    assert cold.stats.executed == 0
    assert cold.stats.disk_hits == 1
    assert recalled.makespan == baseline.makespan
    assert recalled.total_traffic == baseline.total_traffic
    assert recalled.energy.total_pj == baseline.energy.total_pj
    assert recalled.spec == spec


def test_corrupted_cache_entry_is_dropped_and_rerun(tmp_path):
    spec = small_spec()
    warm = Engine(cache_dir=str(tmp_path))
    baseline = warm.run_spec(spec)

    path = warm.cache.path_for(spec.digest())
    path.write_bytes(b"not a pickle")

    engine = Engine(cache_dir=str(tmp_path))
    recovered = engine.run_spec(spec)
    assert engine.stats.corrupt_dropped == 1
    assert engine.stats.executed == 1
    assert recovered.makespan == baseline.makespan
    # the bad entry was replaced by a good one
    again = Engine(cache_dir=str(tmp_path))
    assert again.run_spec(spec).makespan == baseline.makespan
    assert again.stats.disk_hits == 1


def test_wrong_digest_payload_is_treated_as_corruption(tmp_path):
    spec = small_spec()
    engine = Engine(cache_dir=str(tmp_path))
    engine.run_spec(spec)
    digest = spec.digest()
    other = small_spec(hc_kind="mcs").digest()
    # entry filed under the wrong key: digest mismatch must not be served
    path = engine.cache.path_for(other)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(engine.cache.path_for(digest).read_bytes())

    fresh = Engine(cache_dir=str(tmp_path))
    fresh.run_spec(small_spec(hc_kind="mcs"))
    assert fresh.stats.corrupt_dropped == 1
    assert fresh.stats.executed == 1


def test_result_cache_store_load_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    digest = "ab" * 32
    cache.store(digest, {"payload": 1}, {"workload": "sctr"})
    assert digest in cache
    assert len(cache) == 1
    assert cache.load(digest) == {"payload": 1}
    cache.clear()
    assert len(cache) == 0
    assert cache.load(digest) is None


def test_duplicate_specs_in_one_batch_execute_once():
    engine = Engine()
    runs = engine.run_specs([small_spec(), small_spec()])
    assert runs[0] is runs[1]
    assert engine.stats.executed == 1


# --------------------------------------------------------------------- #
# engine: parallel execution
# --------------------------------------------------------------------- #
def test_parallel_matches_serial():
    specs = [small_spec("sctr", kind) for kind in ("mcs", "glock")]
    specs += [small_spec("mctr", kind) for kind in ("mcs", "glock")]
    serial = Engine(jobs=1).run_specs(specs)
    parallel = Engine(jobs=4).run_specs(specs)
    for s, p in zip(serial, parallel):
        assert s.makespan == p.makespan
        assert s.total_traffic == p.total_traffic
        assert s.energy.total_pj == p.energy.total_pj
        # lock uids are process-local counters, so only labels must agree
        assert sorted(s.lock_labels.values()) == sorted(p.lock_labels.values())


def test_parallel_fills_disk_cache(tmp_path):
    specs = [small_spec("sctr", kind) for kind in ("mcs", "glock")]
    hot = Engine(jobs=2, cache_dir=str(tmp_path))
    hot.run_specs(specs)
    assert hot.stats.executed == 2

    warm = Engine(jobs=2, cache_dir=str(tmp_path))
    warm.run_specs(specs)
    assert warm.stats.executed == 0
    assert warm.stats.disk_hits == 2
    assert "executed=0" in warm.summary()


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


def test_fault_plan_replays_identically_serial_vs_parallel():
    """A seeded FaultPlan is part of the spec: the same chaos schedule
    must produce byte-identical results in-process and on a worker pool."""
    from repro.runner import FaultPlan

    specs = [
        RunSpec(workload="synth", hc_kind="glock",
                machine=MachineSpec.baseline(
                    8,
                    fault_plan=FaultPlan(seed=seed, drop_rate=0.005,
                                         delay_rate=0.01,
                                         watchdog_budget=500,
                                         trip_threshold=3)),
                workload_params={"iterations_per_thread": 3},
                max_cycles=5_000_000)
        for seed in (5, 6)
    ]
    serial = Engine(jobs=1).run_specs(specs)
    parallel = Engine(jobs=2).run_specs(specs)
    for s, p in zip(serial, parallel):
        assert s.result.counters.get("faults.injected.drop", 0) > 0
        assert _result_bytes(s.result) == _result_bytes(p.result)


class _FlakyRunner:
    """Fails n times, then delegates to a canned value."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"injected failure #{self.calls}")
        return f"ok:{spec.workload}"


def test_retry_recovers_from_transient_failure(caplog):
    flaky = _FlakyRunner(failures=2)
    engine = Engine(retries=2, execute_fn=flaky)
    assert engine.run_spec(small_spec()) == "ok:sctr"
    assert engine.stats.retries == 2
    assert engine.stats.failures == 0
    # inline retries are logged like the pool's; no timeout, no budget
    retries = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("[retries]")]
    assert len(retries) == 2
    assert "attempt 3/3 after RuntimeError" in retries[1]
    assert "budget" not in " ".join(retries)


def test_retry_budget_exhaustion_raises_runfailure():
    flaky = _FlakyRunner(failures=10)
    engine = Engine(retries=1, execute_fn=flaky)
    with pytest.raises(RunFailure) as excinfo:
        engine.run_spec(small_spec())
    assert engine.stats.failures == 1
    assert excinfo.value.spec == small_spec()
    assert isinstance(excinfo.value.cause, RuntimeError)


def test_inline_timeout_warns_exactly_once():
    """timeout= is silently unenforced inline; the engine must say so."""
    engine = Engine(timeout=5)
    with pytest.warns(RuntimeWarning, match="pool mode"):
        engine.run_spec(small_spec())
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        engine.run_spec(small_spec(hc_kind="mcs"))


def test_inline_without_timeout_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Engine().run_spec(small_spec())


def test_engine_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Engine(jobs=0)
    with pytest.raises(ValueError):
        Engine(retries=-1)


def test_benchmark_run_is_picklable():
    run = Engine().run_spec(small_spec())
    clone = pickle.loads(pickle.dumps(run))
    assert clone.makespan == run.makespan
    assert clone.spec == run.spec


# --------------------------------------------------------------------- #
# active-engine plumbing
# --------------------------------------------------------------------- #
def test_use_engine_scopes_the_active_engine():
    inner = Engine()
    with use_engine(inner):
        assert active_engine() is inner
    assert active_engine() is not inner


def test_run_benchmark_shim_goes_through_active_engine():
    from repro.experiments.common import run_benchmark

    engine = Engine()
    with use_engine(engine):
        bench = run_benchmark("sctr", "glock", **SMALL)
    assert engine.stats.executed == 1
    assert bench.spec == small_spec()


# --------------------------------------------------------------------- #
# CLI end-to-end
# --------------------------------------------------------------------- #
def _fig08_cli(capsys, tmp_path, *extra):
    from repro.cli import main

    argv = ["experiment", "fig08", "--scale", "0.05", "--cores", "4",
            "--cache-dir", str(tmp_path)] + list(extra)
    assert main(argv) == 0
    return capsys.readouterr().out


def test_cli_second_pass_served_entirely_from_cache(capsys, tmp_path):
    cold = _fig08_cli(capsys, tmp_path, "--jobs", "2")
    assert "executed=16" in cold
    warm = _fig08_cli(capsys, tmp_path, "--jobs", "2")
    assert "executed=0" in warm
    assert "disk_hits=16" in warm


def test_cli_parallel_output_byte_identical_to_serial(capsys, tmp_path):
    serial = _fig08_cli(capsys, tmp_path / "s", "--jobs", "1")
    parallel = _fig08_cli(capsys, tmp_path / "p", "--jobs", "4")

    def table(out):
        # strip the [engine] line (jobs/cache differ by construction)
        return [ln for ln in out.splitlines()
                if not ln.startswith("[engine]")]

    assert table(serial) == table(parallel)


def test_cli_no_cache_leaves_no_files(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path / "env-cache"))
    assert main(["shootout", "--cores", "4", "--iters", "16",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "cache=off" in out
    assert not (tmp_path / "env-cache").exists()


def test_cli_cache_dir_env_var(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path / "env-cache"))
    assert main(["shootout", "--cores", "4", "--iters", "16"]) == 0
    assert (tmp_path / "env-cache").exists()


# --------------------------------------------------------------------- #
# cache: concurrent writers
# --------------------------------------------------------------------- #
def _hammer_store(args):
    """Pool worker: repeatedly store the same digest (atomicity probe)."""
    root, digest, payload, iterations = args
    cache = ResultCache(root)
    for _ in range(iterations):
        cache.store(digest, payload, spec_dict={"w": "contender"})
    return True


def test_cache_store_same_digest_concurrent_writers(tmp_path):
    """Atomic rename: racing writers never expose a torn entry."""
    from concurrent.futures import ProcessPoolExecutor

    digest = small_spec().digest()
    payload = {"makespan": 123, "blob": list(range(256))}
    cache = ResultCache(tmp_path)
    args = (str(tmp_path), digest, payload, 25)
    with ProcessPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(_hammer_store, args) for _ in range(4)]
        # interleave reads while the writers are hammering: every load
        # must be a complete entry or a miss, never CacheCorruption
        for _ in range(50):
            loaded = cache.load(digest)
            assert loaded is None or loaded == payload
        assert all(f.result() for f in futures)
    assert cache.load(digest) == payload
    assert len(cache) == 1
    assert not list(tmp_path.glob("**/*.tmp"))  # no litter left behind


# --------------------------------------------------------------------- #
# engine: timeout path and worker teardown
# --------------------------------------------------------------------- #
def _sleepy_execute(spec):
    """Pool worker: hangs, dawdles or kills its own process when the
    spec says so, else returns quickly."""
    import os as _os
    import signal as _signal
    import time as _time

    params = dict(spec.workload_params)
    if params.get("poison"):
        _os.kill(_os.getpid(), _signal.SIGKILL)
    if params.get("hang"):
        _time.sleep(120)
    _time.sleep(params.get("slow", 0))
    return f"done:{params['idx']}"


def test_timeout_kills_hung_worker_and_keeps_finished_results(tmp_path):
    """A hanging execute_fn is terminated: the batch fails promptly,
    the pool is torn down, and already-finished specs stay cached."""
    import time as _time

    def sleepy_spec(idx, hang=False):
        params = {"idx": idx}
        if hang:
            params["hang"] = 1
        return RunSpec(workload="synth", workload_params=params)

    specs = [sleepy_spec(0, hang=True), sleepy_spec(1), sleepy_spec(2)]
    engine = Engine(jobs=2, timeout=1.5, retries=0,
                    execute_fn=_sleepy_execute, cache_dir=str(tmp_path))
    start = _time.monotonic()
    with pytest.raises(RunFailure) as excinfo:
        engine.run_specs(specs)
    elapsed = _time.monotonic() - start
    assert elapsed < 30  # _kill_workers reaped the sleeper; no 120s hang
    assert engine.stats.failures == 1
    assert excinfo.value.spec == specs[0]
    # commit-as-you-land: the fast specs survived the batch abort
    cached = set(ResultCache(tmp_path).digests())
    assert specs[1].digest() in cached
    assert specs[2].digest() in cached
    assert specs[0].digest() not in cached


@pytest.mark.parametrize("trial", range(3))
def test_pool_death_blames_the_killer_and_keeps_the_innocent(tmp_path, trial):
    """A worker killed under two in-flight specs cannot be attributed, so
    both re-run alone: the failure names the spec that kills its worker,
    and the innocent slow spec still lands in the cache."""
    poison = RunSpec(workload="synth", workload_params={"idx": 0,
                                                        "poison": 1})
    slow = RunSpec(workload="synth", workload_params={"idx": 1,
                                                      "slow": 0.5})
    specs = [poison, slow] if trial % 2 == 0 else [slow, poison]
    engine = Engine(jobs=2, retries=0, execute_fn=_sleepy_execute,
                    cache_dir=str(tmp_path))
    with pytest.raises(RunFailure) as excinfo:
        engine.run_specs(specs)
    assert excinfo.value.spec == poison
    assert engine.stats.failures == 1
    assert slow.digest() in set(ResultCache(tmp_path).digests())
