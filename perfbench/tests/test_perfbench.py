"""Fast checks of the benchmark itself, on tiny specs.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import measure, run  # noqa: E402
from perfbench.spans import self_times  # noqa: E402
from repro.sim import kernel  # noqa: E402
from perfbench.suite import (Serving, Sweep, check_failures,  # noqa: E402
                             check_fingerprints, record_reference)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class TinySweep(Sweep):
    name = "tiny-sweep"
    reference = None
    # whichever kernel this checkout has; the real workloads pin theirs
    backend = kernel.active_backend()

    def campaign(self, seed):
        from repro.runner import expand_campaign
        return expand_campaign(
            "campaign: tiny\nmatrix:\n  - benchmarks: [sctr]\n"
            "    locks: [glock, mcs]\n    cores: [4]\n    scale: 0.02\n"
            f"    seed: {seed + 1}\n")


class TinyServing(Serving):
    """One kvstore cell whose watchdog fires almost at once."""

    name = "tiny-serving"
    reference = None

    def campaign(self, seed):
        from repro.runner import expand_campaign
        return expand_campaign(
            "campaign: tiny\nmatrix:\n  - benchmarks: [kvstore]\n"
            "    locks: [mcs]\n    cores: [4]\n    max_cycles: 50\n"
            "    workload_params: {offered_load: 8.0, duration: 2000}\n")


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_valid_and_match_benchmark_json(tmp_path):
    spec = _benchmark_json()
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(run.BACKENDS)

    out = measure.phase_measure(TinySweep(), 0, 0.0, True, tmp_path,
                                record=False,
                                probe=lambda *args: (0.1, ""))
    assert out["problems"] == []
    emitted = set(out["per_layer"]) | set(measure.import_times(""))
    assert emitted == {m["name"] for m in spec["per_layer"]}

    measured = {"wall_s": [1.0], "setup_s": [0.5], "peak_rss_mb": 1.0,
                "attempted": 3, "failed": 0}
    assert set(run.end_to_end_metrics(measured)) == {
        m["name"] for m in spec["end_to_end"]}


def test_perturbed_reference_fingerprint_is_a_failure(tmp_path):
    workload = TinySweep()
    cold = measure.cold_pass(workload, 0, tmp_path)
    reference = record_reference(workload, 0, cold.collector)
    assert check_fingerprints(workload, cold.collector, reference) == {}
    key = sorted(reference["fingerprints"])[0]
    reference["fingerprints"][key] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    workload.reference = str(path)

    out = measure.phase_measure(workload, 0, 0.0, False, tmp_path,
                                record=False,
                                probe=lambda *args: (0.1, ""))
    assert len(out["problems"]) == 1 and "fingerprint" in out["problems"][0]
    assert out["failed"] == 1
    assert run.end_to_end_metrics(out)["ok_frac"] == 0.5


def test_forced_failure_raises_failed_frac(tmp_path):
    cold = measure.cold_pass(TinyServing(), 0, tmp_path)
    assert len(cold.collector.failures) == 1
    assert check_failures(cold.collector.failures)  # not a known defect
    metrics = run.end_to_end_metrics(
        {"wall_s": [cold.wall_s], "setup_s": [0.5], "peak_rss_mb": 1.0,
         "attempted": cold.attempted,
         "failed": len(cold.collector.failures)})
    assert metrics["ok_frac"] == 0.0


def test_known_defect_cells_are_not_failures():
    from repro.runner import MachineSpec, RunSpec
    defect = RunSpec(workload="msgqueue", hc_kind="tatas",
                     machine=MachineSpec.baseline(64))
    other = RunSpec(workload="msgqueue", hc_kind="mcs",
                    machine=MachineSpec.baseline(64))
    assert check_failures({"a": (defect, "deadlock")}) == []
    assert check_failures({"b": (other, "deadlock")})
    assert check_failures({"c": (defect, "error")})


def test_table3_pure_runs_on_the_pure_backend(tmp_path):
    script = (
        "from perfbench import measure\n"
        "from perfbench.spans import TracedExecute, load_worker_spans\n"
        "from repro.runner import RunSpec\n"
        "import sys\n"
        "assert measure.check_backend(measure.WORKLOADS['table3-pure']) "
        "is None\n"
        "TracedExecute(sys.argv[1])(RunSpec.benchmark('sctr', 'mcs', "
        "n_cores=4, scale=0.02))\n"
        "print({s['args'].get('backend') for s in load_worker_spans("
        "sys.argv[1])} - {None})\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=run.child_env("pure"), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{'repro.sim._kernel_pure'}"


def test_compiled_workload_refuses_the_pure_backend():
    env = run.child_env("pure")
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.measure", "--phase", "setup",
         "--workload", "paper"], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 2
    assert "measures the compiled backend" in proc.stderr


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 4.0},
        {"id": "b", "parent": "p", "start": 3.0, "end": 6.0},  # overlaps a
        {"id": "c", "parent": "p", "start": 9.0, "end": 12.0},  # runs over
    ]
    selfs = self_times(spans)
    assert selfs["p"] == 10.0 - 5.0 - 1.0
    assert selfs["a"] == 3.0


def test_sweep_reference_keys_ignore_the_seed():
    sweep = Sweep()
    keys = [{sweep.ref_key(s, s.digest()) for s in
             sweep.campaign(seed).specs} for seed in (0, 5)]
    assert keys[0] == keys[1] and len(keys[0]) == 102


def test_runner_environment_puts_the_checkout_first():
    env = run.child_env("compiled")
    assert env["REPRO_SIM_BACKEND"] == "compiled"
    assert env["PYTHONPATH"].split(os.pathsep)[:2] == [
        str(ROOT / "src"), str(ROOT)]
    assert "REPRO_SIM_DISABLE_CEXT" not in env
