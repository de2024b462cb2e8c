"""One test per documented CLI exit code (docs/running-experiments.md).

The exit-code table promises 0/1/2/3/130 across run / experiment /
lint / race-detect / campaign; each test here pins one documented path
so the table cannot rot.
"""

import signal

import pytest

import repro.cli as cli
import repro.runner as runner
from repro.cli import main
from repro.runner import (CampaignInterrupted, Engine, RunSpec)
from repro.runner.outcome import ERROR, OK, QUARANTINED, RunOutcome
from repro.workloads.synth import RacyCounterWorkload

SMOKE = """
campaign: smoke
defaults: {scale: 0.05, cores: [8]}
matrix:
  - benchmark: sctr
    lock: mcs
"""


def _spec():
    return RunSpec.benchmark("sctr", "mcs", n_cores=8, scale=0.05)


def _outcome(status):
    spec = _spec()
    return RunOutcome(spec=spec, digest=spec.digest(), status=status,
                      error=None if status == OK else "boom")


class _FakeSupervisor:
    """Stands in for the campaign supervisor to pin exit-code mapping."""

    outcomes = ()

    def __init__(self, engine, **kwargs):
        self.engine = engine

    def run_campaign(self, specs):
        return None

    def summary(self):
        return "[campaign] fake"


class _QuarantineSupervisor(_FakeSupervisor):
    outcomes = (_outcome(OK), _outcome(QUARANTINED))


class _FailedSupervisor(_FakeSupervisor):
    outcomes = (_outcome(OK), _outcome(ERROR))


# ---------------------------------------------------------------------- #
# 0 — success
# ---------------------------------------------------------------------- #
def test_exit_0_run(capsys):
    assert main(["run", "--workload", "sctr", "--cores", "4",
                 "--scale", "0.05"]) == 0


def test_exit_0_campaign_run(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text(SMOKE)
    assert main(["campaign", "run", str(path), "--no-cache"]) == 0


# ---------------------------------------------------------------------- #
# 1 — findings (lint, races, cache corruption)
# ---------------------------------------------------------------------- #
def test_exit_1_lint_findings(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(ctx, l):\n    ctx.acquire(l)\n")
    assert main(["lint", str(bad)]) == 1


@pytest.mark.intentionally_racy
def test_exit_1_run_race_detect(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "make_workload",
        lambda name, scale=1.0: RacyCounterWorkload(iterations_per_thread=3))
    assert main(["run", "--workload", "sctr", "--cores", "4",
                 "--race-detect"]) == 1


def test_exit_1_cache_verify_corruption(tmp_path, capsys):
    engine = Engine(cache_dir=str(tmp_path))
    engine.run_specs([_spec()])
    entry = next(tmp_path.glob("*/*.pkl"))
    entry.write_bytes(b"garbage")
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "CORRUPT" in out


# ---------------------------------------------------------------------- #
# 2 — failures and configuration errors
# ---------------------------------------------------------------------- #
def test_exit_2_campaign_config_error(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("campaign: x\nmatrix:\n  - benchmarks: [nope]\n")
    assert main(["campaign", "expand", str(path)]) == 2


def test_exit_2_campaign_run_failure(tmp_path, monkeypatch, capsys):
    def explode(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(
        cli, "_engine_from_args",
        lambda args, fallback=None: Engine(execute_fn=explode))
    path = tmp_path / "c.yaml"
    path.write_text(SMOKE)
    assert main(["campaign", "run", str(path), "--no-cache"]) == 2
    assert "FAILED" in capsys.readouterr().out


def test_exit_2_remote_backend_without_workers(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text(SMOKE)
    code = main(["campaign", "run", str(path), "--no-cache",
                 "--backend", "remote"])
    assert code == 2
    assert "worker addresses" in capsys.readouterr().out


def test_exit_2_experiment_run_failure(monkeypatch, capsys):
    def explode(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(
        cli, "_engine_from_args",
        lambda args, fallback=None: Engine(execute_fn=explode))
    assert main(["experiment", "table4", "--scale", "0.03",
                 "--cores", "4"]) == 2


def test_exit_2_supervised_failures(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "Supervisor", _FailedSupervisor)
    path = tmp_path / "c.yaml"
    path.write_text(SMOKE)
    assert main(["campaign", "run", str(path), "--no-cache",
                 "--fail-policy", "collect"]) == 2


# ---------------------------------------------------------------------- #
# 3 — quarantine
# ---------------------------------------------------------------------- #
def test_exit_3_quarantined_specs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "Supervisor", _QuarantineSupervisor)
    path = tmp_path / "c.yaml"
    path.write_text(SMOKE)
    assert main(["campaign", "run", str(path), "--no-cache",
                 "--fail-policy", "collect"]) == 3
    assert "QUARANTINED" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# 0 — graceful drain (worker and serve exit 0 on SIGTERM)
# ---------------------------------------------------------------------- #
def _start_daemon(argv, ready_marker):
    import os
    import pathlib
    import subprocess
    import sys
    import time

    repo = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(repo / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-m", "repro.cli", *argv],
                            cwd=repo, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise RuntimeError(f"daemon died on startup "
                               f"(exit {proc.returncode})")
        if ready_marker in line:
            return proc
    proc.kill()
    raise RuntimeError(f"never saw {ready_marker!r}")


@pytest.mark.slow
def test_exit_0_worker_sigterm_drain():
    proc = _start_daemon(["worker", "--port", "0", "--no-cache"],
                         "worker listening")
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert "drained cleanly" in out


@pytest.mark.slow
def test_exit_0_serve_sigterm_drain(tmp_path):
    proc = _start_daemon(
        ["serve", "--port", "0", "--cache-dir", str(tmp_path / "cache"),
         "--results-dir", str(tmp_path / "results")],
        "campaign service listening")
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert "drained cleanly" in out


# ---------------------------------------------------------------------- #
# 130 — interrupted
# ---------------------------------------------------------------------- #
def test_exit_130_campaign_interrupted(tmp_path, monkeypatch, capsys):
    class _InterruptedSupervisor(_FakeSupervisor):
        def run_campaign(self, specs):
            raise CampaignInterrupted(signal.SIGINT, None)

    monkeypatch.setattr(runner, "Supervisor", _InterruptedSupervisor)
    path = tmp_path / "c.yaml"
    path.write_text(SMOKE)
    assert main(["campaign", "run", str(path), "--no-cache",
                 "--fail-policy", "collect"]) == 130
    assert "INTERRUPTED" in capsys.readouterr().out
