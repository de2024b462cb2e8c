"""Runtime invariant sanitizer: clean runs stay clean, breaches raise."""

import pytest

from repro.machine import Machine
from repro.mem import protocol as P
from repro.sim import kernel
from repro.sim.config import CMPConfig
from repro.verify.invariants import (
    InvariantSanitizer,
    InvariantViolation,
    attach_sanitizer,
)


def fresh_sanitizer(machine, **kwargs):
    """Attach a sanitizer with our kwargs, replacing any the --sanitize
    autouse fixture already installed (keeps this module mode-independent)."""
    if machine.sanitizer is not None:
        machine.sanitizer.detach()
    return attach_sanitizer(machine, **kwargs)


def _contended_program(lock, iters=5):
    def program(ctx):
        for _ in range(iters):
            yield from ctx.acquire(lock)
            yield 3
            yield from ctx.release(lock)
    return program


# --------------------------------------------------------------------- #
# clean runs
# --------------------------------------------------------------------- #
def test_clean_run_passes(sanitized_machine_factory):
    machine, sanitizer = sanitized_machine_factory(CMPConfig.baseline(8))
    lock = machine.make_lock("glock", name="l")
    result = machine.run([_contended_program(lock)] * 8)
    assert result.makespan > 0
    assert sanitizer.checks_run > 0
    assert sanitizer.events_seen >= sanitizer.checks_run


def test_check_interval_thins_checks():
    machine = Machine(CMPConfig.baseline(4))
    sanitizer = fresh_sanitizer(machine, check_interval=16)
    lock = machine.make_lock("glock", name="l")
    machine.run([_contended_program(lock)] * 4)
    assert 0 < sanitizer.checks_run < sanitizer.events_seen


def test_attach_refuses_double_hook():
    machine = Machine(CMPConfig.baseline(4))
    fresh_sanitizer(machine)
    with pytest.raises(RuntimeError):
        InvariantSanitizer(machine).attach()


def test_detach_restores_hook():
    machine = Machine(CMPConfig.baseline(4))
    sanitizer = fresh_sanitizer(machine)
    sanitizer.detach()
    assert machine.sim.on_event is None
    assert machine.sanitizer is None


def test_invalid_parameters_rejected():
    machine = Machine(CMPConfig.baseline(4))
    with pytest.raises(ValueError):
        InvariantSanitizer(machine, starvation_bound=0)
    with pytest.raises(ValueError):
        InvariantSanitizer(machine, check_interval=0)


# --------------------------------------------------------------------- #
# breaches
# --------------------------------------------------------------------- #
def test_starvation_bound_trips_on_held_lock():
    """A program that acquires and never releases starves the others."""
    machine = Machine(CMPConfig.baseline(4))
    fresh_sanitizer(machine, starvation_bound=500)
    lock = machine.make_lock("glock", name="l")

    def hog(ctx):
        yield from ctx.acquire(lock)
        yield 100_000   # sit on the lock far past the bound

    def polite(ctx):
        yield 10        # let the hog win the race to the token
        yield from ctx.acquire(lock)
        yield from ctx.release(lock)

    with pytest.raises(InvariantViolation, match="waited"):
        machine.run([hog, polite])


def test_bogus_holder_detected():
    """Corrupting a device's holder to a non-core id is caught."""
    machine = Machine(CMPConfig.baseline(4))
    fresh_sanitizer(machine)
    lock = machine.make_lock("glock", name="l")
    device = machine.glocks.devices[0]

    def corrupt(ctx):
        yield from ctx.acquire(lock)
        device._holder = 99   # no such core
        yield 5
        device._holder = ctx.core.core_id
        yield from ctx.release(lock)

    with pytest.raises(InvariantViolation, match="valid core id"):
        machine.run([corrupt])


def test_holder_queued_as_waiter_detected():
    machine = Machine(CMPConfig.baseline(4))
    fresh_sanitizer(machine)
    lock = machine.make_lock("glock", name="l")
    device = machine.glocks.devices[0]

    def corrupt(ctx):
        yield from ctx.acquire(lock)
        device.network._token_callbacks[ctx.core.core_id] = lambda: None
        yield 5

    with pytest.raises(InvariantViolation, match="simultaneously"):
        machine.run([corrupt])


def test_time_monotonicity_guard():
    machine = Machine(CMPConfig.baseline(4))
    sanitizer = fresh_sanitizer(machine)
    sanitizer._last_now = 10**9   # as if time had already advanced
    lock = machine.make_lock("glock", name="l")
    with pytest.raises(InvariantViolation, match="backwards"):
        machine.run([_contended_program(lock)])


def test_drain_flags_still_held_device():
    """A device left held after the phase fails the drain check."""
    machine = Machine(CMPConfig.baseline(4))
    fresh_sanitizer(machine)
    lock = machine.make_lock("glock", name="l")

    def never_release(ctx):
        yield from ctx.acquire(lock)

    with pytest.raises(InvariantViolation, match="still held"):
        machine.run([never_release])


def test_drain_flags_orphaned_signal_waiter():
    """A *process* stuck on a dead signal is an orphan even when it is
    not in the tracked proc list."""
    machine = Machine(CMPConfig.baseline(4))
    sanitizer = fresh_sanitizer(machine)
    sig = machine.sim.signal("never-fires")

    def stray():
        yield sig

    machine.sim.spawn(stray(), name="stray")
    machine.sim.run()
    with pytest.raises(InvariantViolation, match="orphaned"):
        sanitizer.at_drain()


def test_drain_ignores_abandoned_callback_waiters():
    """Plain callback waiters model abandoned in-flight transactions at
    phase end (see run_until_processes_finish) — not orphans."""
    machine = Machine(CMPConfig.baseline(4))
    sanitizer = fresh_sanitizer(machine)
    sig = machine.sim.signal("in-flight-unblock")
    sig.add_callback(lambda value: None)
    sanitizer.at_drain()   # must not raise


#: a line homed at tile 1 of a 4-core chip
STUCK_LINE = 0x1f40

#: how home 1's transaction on STUCK_LINE is left unable to finish, per
#: DirEntry field that records the wait: (cores that read the line first,
#: request kind, requester, message kind the listed tiles swallow).  A
#: GetS from the line's own owner raises mid-transaction and leaves the
#: line busy with nothing parked.
STUCK = {
    "busy": ([3], P.GETS, 3, None, ()),
    "owner_wait": ([3], P.GETS, 2, P.FWD_GETS, (3,)),
    "ack_wait": ([3, 0], P.GETM, 2, P.INV, (0, 3)),
    "unblock_wait": ([3], P.GETS, 2, P.DATA_C2C, (2,)),
}


def _stuck_transaction(backend, field):
    """A machine on ``backend`` whose home 1 holds a transaction on
    STUCK_LINE that no message will ever resume; the queue is drained."""
    prev = kernel.active_backend()
    kernel.set_backend(backend)
    try:
        machine = Machine(CMPConfig.baseline(4))
    finally:
        kernel.set_backend(prev)
    sanitizer = fresh_sanitizer(machine)
    mem, sim = machine.mem, machine.sim
    readers, kind, requester, swallowed, tiles = STUCK[field]
    for core in readers:
        sim.spawn(mem.l1(core).load(STUCK_LINE))
        sim.run()
    for tile in tiles:
        mem.mesh._handlers[tile][swallowed] = lambda msg: None
    mem.mesh.send_proto(mem.config.noc, requester, 1, kind, STUCK_LINE)
    if field == "busy":
        with pytest.raises(RuntimeError,
                           match="home 1: GetS from current owner 3"):
            sim.run()
    sim.run()
    return machine, sanitizer


@pytest.mark.parametrize("field", ["busy", "owner_wait", "ack_wait",
                                   "unblock_wait"])
def test_drain_flags_stuck_directory_transaction(field):
    """A directory transaction busy or parked on a message, with no event
    left that could deliver it, can never finish (on both backends)."""
    for backend in kernel.available_backends():
        machine, sanitizer = _stuck_transaction(backend, field)
        assert machine.sim.pending_events == 0
        with pytest.raises(InvariantViolation,
                           match=r"stuck directory.*home 1 line 0x1f40"):
            sanitizer.at_drain()


def test_drain_ignores_directory_transaction_with_events_pending():
    """While events remain the transaction may still be resumed (phase
    end abandons it mid-flight, see run_until_processes_finish)."""
    for backend in kernel.available_backends():
        machine, sanitizer = _stuck_transaction(backend, "unblock_wait")
        machine.sim.schedule(10, lambda: None)
        sanitizer.at_drain()   # must not raise


def test_drain_flags_unfinished_process():
    machine = Machine(CMPConfig.baseline(4))
    sanitizer = fresh_sanitizer(machine)

    def stuck():
        yield machine.sim.signal("blocked")

    proc = machine.sim.spawn(stuck(), name="stuck")
    machine.sim.run()
    with pytest.raises(InvariantViolation):
        sanitizer.at_drain([proc])
