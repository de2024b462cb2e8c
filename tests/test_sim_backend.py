"""Kernel-backend selection and pure/compiled parity.

The compiled backend (``repro.sim._ckernel``) must be bit-identical to
the pure kernel: a determinism-golden subset is replayed here under each
backend explicitly (skip-if-uncompiled).  Components follow the
simulator they are built on: a pure run in a process whose default was
compiled stays all-Python, and pure and compiled machines coexist.  The
CLI knobs that expose the selection (``--backend``, ``--list-backends``,
``REPRO_SIM_BACKEND``) are exercised end-to-end, including the exit-2
one-liner for an unknown backend or a compiled one on a machine without
the extension.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.machine import Machine
from repro.mem.cache import TagArray
from repro.noc import messages
from repro.noc.topology import Mesh
from repro.runner.engine import execute_spec
from repro.runner.fingerprint import result_fingerprint
from repro.runner.spec import RunSpec
from repro.sim import kernel
from repro.workloads import make_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "determinism_golden.json")

with open(GOLDEN_PATH, "r", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)["entries"]

#: parity subset: first two clean entries, one faulted, one serving
SUBSET = (
    [e for e in GOLDEN if not e["spec"]["machine"].get("fault_plan")][:2]
    + [e for e in GOLDEN if e["spec"]["machine"].get("fault_plan")][:1]
    + [e for e in GOLDEN
       if e["spec"]["workload"].startswith("serving")][:1]
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _subset_id(entry):
    spec = entry["spec"]
    machine = spec["machine"]
    faults = "faults" if machine.get("fault_plan") else "clean"
    return (f"{spec['workload']}-{machine['config']['n_cores']}c-"
            f"{spec['hc_kind']}-{faults}")


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    if request.param not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    prev = kernel.active_backend()
    kernel.set_backend(request.param)
    yield request.param
    kernel.set_backend(prev)


@pytest.mark.parametrize("entry", SUBSET, ids=_subset_id)
def test_golden_fingerprints_identical_across_backends(backend, entry):
    """Each backend reproduces the seed goldens byte-for-byte."""
    assert kernel.active_backend() == backend
    spec = RunSpec.from_dict(entry["spec"])
    assert spec.digest() == entry["spec_digest"]
    run = execute_spec(spec)
    assert run.result.makespan == entry["makespan"]
    assert result_fingerprint(run.result) == entry["result_fingerprint"], \
        f"{backend} backend diverged from the golden fingerprint"


# --------------------------------------------------------------------- #
# components follow the simulator they are built on
# --------------------------------------------------------------------- #
@pytest.fixture
def compiled_default():
    """The compiled backend as the process default (restored after)."""
    if "compiled" not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    prev = kernel.active_backend()
    kernel.set_backend("compiled")
    yield
    kernel.set_backend(prev)


def test_pure_switch_in_compiled_process_runs_all_python(
        compiled_default, monkeypatch):
    """After set_backend("pure"), nothing compiled leaks into a run."""
    sent, machines = [], []
    pure_send, from_spec = Mesh.send, Machine.from_spec

    def send(mesh, msg):
        sent.append(type(msg))
        return pure_send(mesh, msg)

    def capture(spec):
        machines.append(from_spec(spec))
        return machines[-1]

    monkeypatch.setattr(Mesh, "send", send)
    monkeypatch.setattr(Machine, "from_spec", capture)
    kernel.set_backend("pure")
    entry = GOLDEN[0]
    run = execute_spec(RunSpec.from_dict(entry["spec"]))
    assert result_fingerprint(run.result) == entry["result_fingerprint"]
    assert sent and set(sent) == {messages.Message}
    mem = machines[0].mem
    assert mem.mesh._core is None
    assert {type(c.tags) for c in mem.l1s + mem.l2s} == {TagArray}


def _built(entry):
    spec = RunSpec.from_dict(entry["spec"])
    assert not spec.workload_params and not spec.seed
    machine = Machine.from_spec(spec.machine)
    instance = make_workload(spec.workload, scale=spec.scale).instantiate(
        machine, hc_kind=spec.hc_kind, other_kind=spec.other_kind,
        hc_kinds=spec.hc_kinds)
    return machine, instance


def _run_built(machine, instance, entry):
    result = machine.run(instance.programs)
    instance.validate(machine)
    assert result_fingerprint(result) == entry["result_fingerprint"]


def test_compiled_and_pure_machines_interleave(compiled_default):
    """Each machine keeps the backend it was built on, whatever the
    process default is when it runs."""
    entry = GOLDEN[0]
    compiled = _built(entry)
    kernel.set_backend("pure")
    pure = _built(entry)
    assert compiled[0].mem.mesh._core is not None
    assert pure[0].mem.mesh._core is None
    _run_built(*compiled, entry)     # runs while the default is pure
    kernel.set_backend("compiled")
    _run_built(*pure, entry)         # runs while the default is compiled


# --------------------------------------------------------------------- #
# selection API
# --------------------------------------------------------------------- #
def test_active_backend_is_available():
    assert kernel.active_backend() in kernel.available_backends()
    assert "pure" in kernel.available_backends()


def test_resolve_backend_auto_prefers_compiled():
    expected = ("compiled" if "compiled" in kernel.available_backends()
                else "pure")
    assert kernel.resolve_backend("auto") == expected


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown simulator backend"):
        kernel.resolve_backend("jit")


def test_set_backend_round_trip():
    prev = kernel.active_backend()
    try:
        assert kernel.set_backend("pure") == "pure"
        assert kernel.active_backend() == "pure"
        assert kernel.set_backend("auto") == kernel.resolve_backend("auto")
    finally:
        kernel.set_backend(prev)


# --------------------------------------------------------------------- #
# CLI knobs (subprocess: backend availability is a process-level fact)
# --------------------------------------------------------------------- #
def _cli(args, disable_cext=False, backend_env=None):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    env.pop("REPRO_SIM_BACKEND", None)
    if backend_env is not None:
        env["REPRO_SIM_BACKEND"] = backend_env
    if disable_cext:
        env["REPRO_SIM_DISABLE_CEXT"] = "1"
    else:
        env.pop("REPRO_SIM_DISABLE_CEXT", None)
    return subprocess.run([sys.executable, "-m", "repro.cli"] + args,
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_cli_backend_compiled_exits_2_when_extension_absent():
    proc = _cli(["run", "--workload", "sctr", "--lock", "glock",
                 "--backend", "compiled"], disable_cext=True)
    _assert_one_line_error(proc, "not built")


def _assert_one_line_error(proc, text):
    assert proc.returncode == 2
    lines = [l for l in proc.stderr.splitlines() if l.strip()]
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:")
    assert text in lines[0]


def test_cli_unknown_backend_env_exits_2():
    proc = _cli(["run", "--workload", "sctr", "--lock", "glock"],
                backend_env="jit")
    _assert_one_line_error(proc, "unknown simulator backend 'jit'")


def test_cli_compiled_backend_env_exits_2_when_extension_absent():
    proc = _cli(["run", "--workload", "sctr", "--lock", "glock"],
                disable_cext=True, backend_env="compiled")
    _assert_one_line_error(proc, "not built")


def test_cli_list_backends_marks_auto_resolution():
    proc = _cli(["run", "--list-backends"], disable_cext=True)
    assert proc.returncode == 0
    out = proc.stdout.splitlines()
    assert out[0] == "pure  <- auto"
    assert out[1].startswith("compiled  (not built")


def test_cli_backend_pure_runs_and_reports():
    proc = _cli(["run", "--workload", "sctr", "--lock", "glock",
                 "--scale", "0.1", "--backend", "pure"])
    assert proc.returncode == 0, proc.stderr
    assert "makespan" in proc.stdout
