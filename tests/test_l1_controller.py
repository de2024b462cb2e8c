"""The L1 controller and the directory behave the same on both backends.

With the compiled kernel, one C ``L1Hit`` object per L1 runs the whole
controller: hits, miss issue and completion, fills (with the victim's
eviction notice), invalidations, forwards and spin-watch wakeups; one C
``L2Dir`` object per home slice runs the whole directory.  These tests
hold them to the pure :class:`~repro.mem.l1.L1Cache` and
:class:`~repro.mem.l2dir.L2DirectorySlice`:

- every L1 (and tag array) error raises the same exception type with
  the same text;
- contended runs execute no Python frame of the pure L1 handlers or
  directory transaction methods on the compiled backend (no silent
  fallback), and every one of them on the pure one;
- the profiler reports the same component rows, with the same event
  counts, on both backends;
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
from repro.mem.l2dir import L2DirectorySlice
from repro.runner.engine import execute_spec
from repro.runner.spec import MachineSpec, RunSpec
from repro.sim import kernel
from repro.sim.config import CacheConfig
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
_PURE_HANDLERS = {
    L1Cache: ("_on_fill", "_on_inv", "_handle_forward", "_request",
              "_complete"),
    L2DirectorySlice: ("_on_request", "_on_inv_ack", "_on_unblock",
                       "_on_recall", "_on_owner_notice", "_start",
                       "_finish", "_begin", "_forwarded", "_serve",
                       "_invalidated", "_reply_gets", "_reply_getm",
                       "_l2_data", "_l2_fill", "may_evict"),
}

#: 16 cores with 1 KiB two-way L1 and L2: the tiny caches also reach L1
#: eviction notices and L2 victim choice
TINY_CACHES = CMPConfig(n_cores=16, l1=CacheConfig(1024, 2, 64, 2),
                        l2=CacheConfig(1024, 2, 64, 12))
TINY_SPEC = RunSpec(workload="raytr", hc_kind="mcs", scale=0.3,
                    machine=MachineSpec(config=TINY_CACHES))


def _contended_run():
    machine = Machine(CMPConfig.baseline(16))
    instance = make_workload("sctr", scale=0.25).instantiate(
        machine, hc_kind="tatas", other_kind="tatas")
    machine.run(instance.programs)
    return machine


def test_compiled_controller_runs_no_python_l1_frames(backend):
    sources = {inspect.getsourcefile(cls): names
               for cls, names in _PURE_HANDLERS.items()}
    calls = {(src, name): 0
             for src, names in sources.items() for name in names}

    def hook(frame, event, arg):
        key = (frame.f_code.co_filename, frame.f_code.co_name)
        if event == "call" and key in calls:
            calls[key] += 1

    sys.setprofile(hook)
    try:
        machine = _contended_run()
        execute_spec(TINY_SPEC)
    finally:
        sys.setprofile(None)
    assert machine.counters["l1.c2c_transfers"] > 0
    if backend == "compiled":
        assert calls == dict.fromkeys(calls, 0)
    else:
        assert all(calls.values()), calls


def _profile_events():
    with profiling() as prof:
        _contended_run()
    return {name: row["events"] for name, row in prof.report().items()}


def test_profiler_rows_match_across_backends(backend):
    events = _profile_events()
    assert set(events) == {"process:core", "L1Cache", "L2DirectorySlice"}
    if backend == "compiled":
        # the compiled controllers queue exactly the pure ones' events
        kernel.set_backend("pure")
        assert events == _profile_events()


# --------------------------------------------------------------------- #
# reference counting
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", [
    RunSpec(workload="prco", hc_kind="tatas", scale=0.3,
            machine=MachineSpec.baseline(16)),
    TINY_SPEC,
], ids=["prco-tatas", "raytr-mcs-tiny"])
def test_compiled_controller_does_not_leak(spec):
    if "compiled" not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    prev = kernel.active_backend()
    kernel.set_backend("compiled")
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
