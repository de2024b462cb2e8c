"""Core model and thread-program context.

A :class:`Core` is one in-order processor: it owns a private L1, an
instruction counter (input to the energy model) and a per-category cycle
account.  A :class:`ThreadContext` is the API a workload's thread program
sees; it wraps every operation with time-category attribution:

- ``compute(n)``        -> Busy
- ``load/store/rmw``    -> Memory (or the enclosing sync category)
- ``acquire/release``   -> Lock (including all memory traffic they cause)
- ``barrier_wait``      -> Barrier

matching the paper's Figure 8 breakdown, where lock time covers the whole
acquire/release operations and critical-section bodies remain Busy/Memory.

Lock-acquire wait intervals are recorded into the machine-wide
:class:`~repro.sim.stats.IntervalRecorder` — the raw material of the
grAC/LCR contention analysis (Figure 7).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mem.l1 import MISS, L1Cache
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.stats import CounterSet, IntervalRecorder

__all__ = ["Core", "ThreadContext", "CATEGORIES", "BUSY", "MEMORY", "LOCK", "BARRIER"]

BUSY = "busy"
MEMORY = "memory"
LOCK = "lock"
BARRIER = "barrier"
CATEGORIES = (BUSY, MEMORY, LOCK, BARRIER)


class Core:
    """One in-order processor core."""

    def __init__(self, sim: Simulator, core_id: int, l1: L1Cache,
                 counters: CounterSet) -> None:
        self.sim = sim
        self.core_id = core_id
        self.l1 = l1
        self.counters = counters  # machine-global counter set
        self.instructions = 0
        self.cycles: Dict[str, int] = {c: 0 for c in CATEGORIES}
        self.finish_time: Optional[int] = None

    def category_fractions(self) -> Dict[str, float]:
        """Per-category share of this core's accounted cycles."""
        total = sum(self.cycles.values())
        if total == 0:
            return {c: 0.0 for c in CATEGORIES}
        return {c: v / total for c, v in self.cycles.items()}


class ThreadContext:
    """Execution context handed to a thread program generator."""

    def __init__(self, core: Core,
                 lock_intervals: Optional[IntervalRecorder] = None,
                 races=None) -> None:
        self.core = core
        self.sim = core.sim
        self.lock_intervals = lock_intervals
        #: optional repro.verify.races.RaceDetector observing this thread's
        #: accesses and synchronization; passed in by Machine.context()
        self.races = races
        self._cat_stack: List[str] = []
        # hot-path shortcuts into the L1: load/store/rmw inline the L1
        # access sequence (try_hit; on a miss _request, yield the fill
        # signal, _complete; then yield the hit latency), so no access
        # costs an extra generator frame
        l1 = core.l1
        self._l1_try_hit = l1.try_hit
        self._l1_request = l1._request
        self._l1_complete = l1._complete
        self._l1_hit_latency = l1.hit_latency
        self._l1_mask = l1._line_mask
        self._l1_c_rmw = l1._c_rmw

    @property
    def core_id(self) -> int:
        """The id of the core this thread runs on."""
        return self.core.core_id

    # ------------------------------------------------------------------ #
    # attribution helpers
    # ------------------------------------------------------------------ #
    def _attribute(self, category: str, cycles: int) -> None:
        # inside a sync wrapper (Lock/Barrier) the wrapper accounts the whole
        # elapsed span once -- inner ops must not double-count
        if self._cat_stack:
            return
        self.core.cycles[category] += cycles

    # ------------------------------------------------------------------ #
    # computation and memory
    # ------------------------------------------------------------------ #
    def compute(self, cycles: int):
        """Coroutine: execute ``cycles`` of local computation."""
        if cycles < 0:
            raise ValueError("negative compute time")
        self.core.instructions += cycles
        self._attribute(BUSY, cycles)
        yield cycles

    def idle(self, cycles: int):
        """Coroutine: wait ``cycles`` without issuing instructions.

        Models pause-loop back-off: the core stays powered (leakage accrues)
        but executes no energy-charged instructions.  Attributed to Busy.
        """
        if cycles < 0:
            raise ValueError("negative idle time")
        self._attribute(BUSY, cycles)
        yield cycles

    def load(self, addr: int):
        """Coroutine: read a word through the L1; returns its value."""
        t0 = self.sim.now
        line = addr & self._l1_mask
        value = self._l1_try_hit(line, False, addr, None, None)
        if value is MISS:
            yield self._l1_request(line, False)
            value = self._l1_complete(addr, False, None, None)
        yield self._l1_hit_latency
        self.core.instructions += 1
        self._attribute(MEMORY, self.sim.now - t0)
        # workload-level accesses only: loads issued inside a lock/barrier
        # implementation spin on intentionally-contended sync words
        if self.races is not None and not self._cat_stack:
            self.races.on_access(self, addr, False)
        return value

    def store(self, addr: int, value: int):
        """Coroutine: write a word through the L1."""
        t0 = self.sim.now
        line = addr & self._l1_mask
        if self._l1_try_hit(line, True, addr, value, None) is MISS:
            yield self._l1_request(line, True)
            self._l1_complete(addr, True, value, None)
        yield self._l1_hit_latency
        self.core.instructions += 1
        self._attribute(MEMORY, self.sim.now - t0)
        if self.races is not None and not self._cat_stack:
            self.races.on_access(self, addr, True)

    def rmw(self, addr: int, fn):
        """Coroutine: atomic read-modify-write; returns the old value."""
        t0 = self.sim.now
        line = addr & self._l1_mask
        old = self._l1_try_hit(line, True, addr, None, fn)
        if old is MISS:
            yield self._l1_request(line, True)
            old = self._l1_complete(addr, True, None, fn)
        yield self._l1_hit_latency
        self._l1_c_rmw.value += 1
        self.core.instructions += 1
        self._attribute(MEMORY, self.sim.now - t0)
        if self.races is not None and not self._cat_stack:
            self.races.on_access(self, addr, True, atomic=True)
        return old

    def spin_until(self, addr: int, predicate):
        """Coroutine: test-and-test&set style spin on a word."""
        t0 = self.sim.now
        value = yield from self.core.l1.spin_until(addr, predicate)
        self.core.instructions += 1
        self._attribute(MEMORY, self.sim.now - t0)
        if self.races is not None and not self._cat_stack:
            self.races.on_access(self, addr, False)
        return value

    # ------------------------------------------------------------------ #
    # synchronization
    # ------------------------------------------------------------------ #
    def acquire(self, lock, timeout=None):
        """Coroutine: acquire ``lock``; elapsed time -> Lock category.

        With ``timeout=None`` (the default) this blocks until the lock is
        owned and returns True.  With a non-negative ``timeout`` in cycles
        it gives up once the deadline passes and returns False instead —
        the load-shedding path of the serving workloads.  Timed acquires
        require a lock whose class sets ``supports_timed_acquire`` (the
        spin family and every ``cr:`` wrapper); queue locks like MCS,
        whose abandoned queue nodes would corrupt the chain, refuse.
        """
        t0 = self.sim.now
        if timeout is not None:
            if timeout < 0:
                raise ValueError("negative acquire timeout")
            if not lock.supports_timed_acquire:
                raise SimulationError(
                    f"lock {lock.name!r} ({type(lock).__name__}) does not "
                    f"support timed acquire")
        if self.sim.tracer is not None:
            self.sim.tracer.record(t0, "lock", f"core{self.core_id}",
                                   f"acquire {lock.name} (start)")
        if self.lock_intervals is not None:
            self.lock_intervals.open(lock.uid, self.core_id, t0)
        self._cat_stack.append(LOCK)
        granted = True
        try:
            if timeout is None:
                yield from lock.acquire(self)
            else:
                granted = bool((yield from lock.acquire_timed(self,
                                                              t0 + timeout)))
        finally:
            self._cat_stack.pop()
        # failed waits still close their interval: the time was spent
        # waiting on this lock and belongs in the contention analysis
        if self.lock_intervals is not None:
            self.lock_intervals.close(lock.uid, self.core_id, self.sim.now)
        if self.sim.tracer is not None:
            outcome = "granted" if granted else "timeout"
            self.sim.tracer.record(self.sim.now, "lock",
                                   f"core{self.core_id}",
                                   f"acquire {lock.name} ({outcome}, "
                                   f"{self.sim.now - t0} cycles)")
        self.core.cycles[LOCK] += self.sim.now - t0
        if self.races is not None:
            if granted:
                self.races.on_acquire(self.core_id, lock)
            else:
                self.races.on_acquire_timeout(self.core_id, lock)
        return granted

    def release(self, lock):
        """Coroutine: release ``lock``; elapsed time -> Lock category."""
        t0 = self.sim.now
        if self.sim.tracer is not None:
            self.sim.tracer.record(t0, "lock", f"core{self.core_id}",
                                   f"release {lock.name}")
        # snapshot the happens-before edge at release *entry*: everything
        # this thread did up to here is visible to the next acquirer
        if self.races is not None:
            self.races.on_release(self.core_id, lock)
        self._cat_stack.append(LOCK)
        try:
            yield from lock.release(self)
        finally:
            self._cat_stack.pop()
        self.core.cycles[LOCK] += self.sim.now - t0

    def critical(self, lock, body):
        """Coroutine: acquire, run ``body`` (a generator), release."""
        yield from self.acquire(lock)
        try:
            yield from body
        finally:
            yield from self.release(lock)

    def barrier_wait(self, barrier):
        """Coroutine: wait at ``barrier``; elapsed time -> Barrier category."""
        t0 = self.sim.now
        if self.sim.tracer is not None:
            self.sim.tracer.record(t0, "sync", f"core{self.core_id}",
                                   f"barrier {barrier.name} (arrive)")
        if self.races is not None:
            self.races.on_barrier_arrive(self.core_id, barrier)
        self._cat_stack.append(BARRIER)
        try:
            yield from barrier.wait(self)
        finally:
            self._cat_stack.pop()
        if self.races is not None:
            self.races.on_barrier_depart(self.core_id, barrier)
        if self.sim.tracer is not None:
            self.sim.tracer.record(self.sim.now, "sync",
                                   f"core{self.core_id}",
                                   f"barrier {barrier.name} (depart, "
                                   f"{self.sim.now - t0} cycles)")
        self.core.cycles[BARRIER] += self.sim.now - t0
