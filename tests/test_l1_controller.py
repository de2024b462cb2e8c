"""The L1 controller behaves the same on both kernel backends.

With the compiled kernel, one C ``L1Hit`` object per L1 runs the whole
controller: hits, miss issue and completion, fills (with the victim's
eviction notice), invalidations, forwards and spin-watch wakeups.  These
tests hold it to the pure :class:`~repro.mem.l1.L1Cache`:

- every L1 (and tag array) error raises the same exception type with
  the same text;
- a contended run executes no Python frame of the pure handlers on the
  compiled backend (no silent fallback), and some on the pure one;
- the profiler reports the same component rows on both backends;
- repeated compiled runs do not leak (reference counting in the C
  handlers).
"""

import gc
import inspect
import sys
import tracemalloc

import pytest

from repro import CMPConfig, Machine
from repro.mem import MemorySystem, cache
from repro.mem import protocol as P
from repro.mem.l1 import L1Cache
from repro.runner.engine import execute_spec
from repro.runner.spec import MachineSpec, RunSpec
from repro.sim import kernel
from repro.sim.profile import profiling
from repro.workloads.registry import make_workload


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    if request.param not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    prev = kernel.active_backend()
    kernel.set_backend(request.param)
    yield request.param
    kernel.set_backend(prev)


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


# --------------------------------------------------------------------- #
# error parity
# --------------------------------------------------------------------- #
def test_unaligned_hit_error(backend):
    machine = Machine(CMPConfig.baseline(4))
    addr = machine.mem.address_space.alloc_word()

    def prog(ctx):
        yield from ctx.load(addr)
        yield from ctx.load(addr + 1)  # same line: a hit

    assert _raised(lambda: machine.run([prog])) == (
        ValueError, f"unaligned word address {addr + 1:#x}")


def test_unaligned_miss_error(backend):
    machine = Machine(CMPConfig.baseline(4))
    addr = machine.mem.address_space.alloc_word()

    def prog(ctx):
        yield from ctx.store(addr + 1, 7)  # cold line: fails on completion

    assert _raised(lambda: machine.run([prog])) == (
        ValueError, f"unaligned word address {addr + 1:#x}")


def test_fill_with_nothing_pending_error(backend):
    sim = kernel.Simulator()
    mem = MemorySystem(sim, CMPConfig.baseline(4))
    line = mem.address_space.alloc_word()
    msg = P.make_msg(mem.config.noc, 1, 0, P.DATA, line)
    assert _raised(lambda: mem.l1(0).handle(msg)) == (
        RuntimeError, f"L1 0: fill for {line:#x} but pending None")


def test_second_outstanding_miss_error(backend):
    sim = kernel.Simulator()
    mem = MemorySystem(sim, CMPConfig.baseline(4))
    first = mem.address_space.alloc_line()
    second = mem.address_space.alloc_line()
    l1 = mem.l1(0)
    procs = [sim.spawn(l1.load(first), name="a"),
             sim.spawn(l1.load(second), name="b")]
    assert _raised(lambda: sim.run_until_processes_finish(procs)) == (
        RuntimeError, f"L1 0: second outstanding miss on line {second:#x} "
                      "(cores are in-order)")


@pytest.mark.parametrize("impl", ["pure", "compiled"])
def test_tag_array_error_texts(impl):
    if impl not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    if impl == "pure":
        cls = cache.TagArray
    else:
        from repro.sim import _ckernel
        cls = _ckernel.TagArray
    tags = cls(CMPConfig.baseline(4).l1)
    line = 0x10040
    assert _raised(lambda: tags.set_state(line, "M")) == (
        KeyError, repr(f"line {line:#x} not resident"))
    tags.insert(line, "S")
    assert _raised(lambda: tags.insert(line, "S")) == (
        KeyError, repr(f"line {line:#x} already resident"))


# --------------------------------------------------------------------- #
# no silent fallback, one profiler row per layer
# --------------------------------------------------------------------- #
_PURE_HANDLERS = ("_on_fill", "_on_inv", "_handle_forward", "_request",
                  "_complete")


def _contended_run():
    machine = Machine(CMPConfig.baseline(16))
    instance = make_workload("sctr", scale=0.25).instantiate(
        machine, hc_kind="tatas", other_kind="tatas")
    machine.run(instance.programs)
    return machine


def test_compiled_controller_runs_no_python_l1_frames(backend):
    l1_source = inspect.getsourcefile(L1Cache)
    calls = dict.fromkeys(_PURE_HANDLERS, 0)

    def hook(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name in calls
                and code.co_filename == l1_source):
            calls[code.co_name] += 1

    sys.setprofile(hook)
    try:
        machine = _contended_run()
    finally:
        sys.setprofile(None)
    assert machine.counters["l1.c2c_transfers"] > 0
    if backend == "compiled":
        assert calls == dict.fromkeys(_PURE_HANDLERS, 0)
    else:
        assert all(calls.values()), calls


def test_profiler_rows_match_across_backends(backend):
    with profiling() as prof:
        _contended_run()
    assert set(prof.report()) == {"process:core", "L1Cache",
                                  "L2DirectorySlice"}


# --------------------------------------------------------------------- #
# reference counting
# --------------------------------------------------------------------- #
def test_compiled_controller_does_not_leak():
    if "compiled" not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    prev = kernel.active_backend()
    kernel.set_backend("compiled")
    spec = RunSpec(workload="prco", hc_kind="tatas", scale=0.3,
                   machine=MachineSpec.baseline(16))
    traced = []
    tracemalloc.start()
    try:
        for _ in range(5):
            execute_spec(spec)
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        kernel.set_backend(prev)
    # the first two runs warm caches (interned strings, route tables)
    per_run = (traced[-1] - traced[1]) / (len(traced) - 2)
    assert per_run < 10 * 1024, traced
