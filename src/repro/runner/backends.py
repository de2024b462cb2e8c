"""Pluggable execution backends for the experiment engine.

The :class:`~repro.runner.engine.Engine` owns *what* to run (memo and
disk-cache misses) and the bookkeeping of results; a backend owns *how*
the remaining specs execute, and supplies only three things: an
executor, its slot count and the way to kill it.

- :class:`InlineBackend` — an :class:`InlineExecutor` running each spec
  in this process as it is submitted (1 slot; the classic ``jobs=1``);
- :class:`ProcessPoolBackend` — a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs`` slots);
- :class:`~repro.runner.remote.RemoteBackend` — a
  :class:`~repro.runner.remote.RemoteExecutor` over socket-protocol
  workers started with ``repro-sim worker`` (one slot per worker).

:meth:`ExecutionBackend.execute` is the package's one execution loop;
it drives any :class:`~concurrent.futures.Executor` and lands results
through the same hooks, so caching, retries, the campaign supervisor's
outcome taxonomy and manifests behave identically on every backend:

``execute(todo, engine, *, land=None, fail=None, tick=None, policy=None)``

- ``land(digest, run)`` — a result arrived; the default commits it to
  the engine's memo/disk cache.  The loop calls it the moment a result
  lands (never batched at the end), so an abort later in the batch can
  never discard finished, cacheable work.
- ``fail(digest, exc)`` — a spec exhausted its retry budget; the
  default raises :class:`~repro.runner.engine.RunFailure` (the engine's
  classic fail-fast contract).  A collect-mode caller records an
  outcome instead and the batch keeps going.
- ``tick()`` — polled between scheduling steps so a supervising caller
  can checkpoint and raise on SIGINT/SIGTERM.
- ``policy`` — a :class:`PoolPolicy`, told of every retry and asked how
  to react to executor trouble.

The loop does all of the mechanics once: submission within the policy's
admission window, the retry budget (each charged attempt is logged as a
``[retries]`` warning; an :class:`Unretryable` failure is settled at
once, uncharged), a per-run deadline counted from the moment the run
starts, landing of finished survivors when the pool dies,
kill-and-rebuild, and **solo re-runs of pool-death victims** — a
``BrokenProcessPool`` cannot say which spec killed its worker, so every
spec lost with the pool is re-run alone, where blame is unambiguous.
The policy only decides: the bare engine's default charges a solo kill
one retry attempt, while the campaign
:class:`~repro.runner.supervisor.Supervisor` counts kills toward
quarantine, backs off, and sheds or heals the admission window.  Only a
pool dies as a whole or is killed for one overrun: a remote spec past
its deadline is cancelled alone, and an inline future is finished
before ``submit`` returns.
"""

from __future__ import annotations

import logging
import signal as _signal
import sys
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Executor,
                                Future, ProcessPoolExecutor, wait)
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Callable, Dict, List, Optional, Tuple

log = logging.getLogger("repro.runner")

__all__ = [
    "BACKEND_NAMES", "CHARGE", "ExecutionBackend", "InlineBackend",
    "InlineExecutor", "PoolPolicy", "ProcessPoolBackend", "RERUN", "SETTLE",
    "Unretryable", "drain_finished", "expire_deadlines", "kill_workers",
    "make_backend", "new_pool", "pool_worker_init",
]

#: the names ``make_backend`` (and the CLI ``--backend`` flag) accept
BACKEND_NAMES = ("auto", "inline", "process-pool", "remote")

#: longest the execution loop blocks while a ``tick`` hook is polled
#: (seconds): bounds how late a SIGINT/SIGTERM checkpoint can be
POLL_INTERVAL = 0.1

LandFn = Callable[[str, object], None]
FailFn = Callable[[str, BaseException], None]
TickFn = Callable[[], None]


# ---------------------------------------------------------------------- #
# process-pool plumbing
# ---------------------------------------------------------------------- #
def pool_worker_init() -> None:
    """Restore default SIGINT/SIGTERM dispositions in pool workers.

    Workers fork from a process that may have the campaign supervisor's
    checkpoint handlers installed; inheriting those would make a worker
    swallow ``terminate()`` and survive :func:`kill_workers`.
    """
    for signum in (_signal.SIGINT, _signal.SIGTERM):
        try:
            _signal.signal(signum, _signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass


def new_pool(max_workers: int) -> ProcessPoolExecutor:
    """A pool whose workers restore default signal dispositions."""
    return ProcessPoolExecutor(max_workers=max_workers,
                               initializer=pool_worker_init)


def kill_workers(pool: ProcessPoolExecutor) -> None:
    """Kill stuck workers so shutdown() cannot hang on a timeout.

    SIGKILL, not SIGTERM: a worker that inherited (or installed) a
    termination handler must still die.  Workers are killed *before*
    ``shutdown()``: the kill trips the executor's broken-pool detection
    (worker sentinels), whose cleanup path reaps everything.  Shutting
    down first parks the manager thread on a result that will never
    arrive, deadlocking interpreter exit.
    """
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def drain_finished(inflight: Dict[object, str],
                   deadlines: Dict[object, Optional[float]],
                   land: Callable[[str, object], None]) -> List[str]:
    """Split in-flight futures after a pool death: finished work lands.

    A ``BrokenProcessPool`` poisons every *pending* future, but futures
    that already completed successfully still hold their results —
    discarding them would charge (and possibly fail) a spec that
    actually succeeded.  ``land`` receives each finished
    ``(digest, result)``; the digests genuinely lost with the pool are
    returned.  Clears ``inflight``/``deadlines``.
    """
    victims: List[str] = []
    for future, digest in list(inflight.items()):
        if future.done() and future.exception() is None:
            land(digest, future.result())
        else:
            victims.append(digest)
    inflight.clear()
    deadlines.clear()
    return victims


def expire_deadlines(inflight: Dict[object, str],
                     deadlines: Dict[object, Optional[float]],
                     now: float) -> Tuple[List[str], List[str]]:
    """Pop the in-flight futures whose deadline passed by ``now``.

    Returns ``(expired, stuck)`` digests: every expired spec owes a
    timeout charge; ``stuck`` ones refused to cancel (the executor must
    be killed to free them).  A future not yet started has no deadline
    (``None``); one that completes in the race with ``cancel()`` stays in
    flight for the next collection, so its result is never discarded.
    """
    expired: List[str] = []
    stuck: List[str] = []
    for future, deadline in list(deadlines.items()):
        if deadline is None or now < deadline or future.done():
            continue
        running = not future.cancel()
        if running and future.done():
            continue  # completed between the done() check and cancel()
        digest = inflight.pop(future)
        deadlines.pop(future)
        expired.append(digest)
        if running:
            stuck.append(digest)
    return expired, stuck


# ---------------------------------------------------------------------- #
# the backend interface and its one execution loop
# ---------------------------------------------------------------------- #
class Unretryable(Exception):
    """An executor error no retry can cure (it can run nothing more):
    the loop fails the spec at once, charging no retry attempt."""


#: :meth:`PoolPolicy.solo_kill` verdicts for a spec that killed its
#: worker while running alone: charge it one retry attempt, re-run it
#: alone free of charge, or settle it as failed now (quarantine)
CHARGE, RERUN, SETTLE = "charge", "rerun", "settle"


class PoolPolicy:
    """How :meth:`ExecutionBackend.execute` reacts to executor trouble.

    The defaults are the bare engine's: admission is capped only by the
    backend's slot count, a spec that kills its worker while running
    alone costs one retry attempt like any other failure, and nothing is
    counted.  The campaign :class:`~repro.runner.supervisor.Supervisor`
    is a policy too: it overrides every hook.
    """

    #: most specs admitted at once (the backend's slot count caps it)
    window: int = sys.maxsize

    def retrying(self, digest: str, exc: BaseException) -> None:
        """A failed attempt of ``digest`` was charged; it will run again."""

    def solo_kill(self, digest: str, exc: BaseException) -> str:
        """``digest`` killed its worker while alone: return a verdict."""
        return CHARGE

    def pool_died(self, victims: List[str], exc: BaseException) -> None:
        """The executor died under ``victims``; called before the rebuild."""

    def timeout_killed(self, stuck: List[str]) -> None:
        """The executor stuck on ``stuck`` was killed; it is rebuilt."""


class ExecutionBackend:
    """Executes a batch of cache-miss specs on behalf of an engine.

    Subclasses supply :meth:`slots`, :meth:`executor` and, when shutting
    the executor down is not enough, :meth:`kill`; :meth:`execute` is
    the loop that drives them.  Collection waits for the *first*
    completion, so one slow or hung spec never head-of-line-blocks the
    others.  Each (re)submission gets a fresh wall-clock deadline from
    the moment its future starts running.  A spec past it is charged a
    timeout and cancelled; an executor that cannot cancel a running spec
    (a process pool) is killed and rebuilt, resubmitting the other
    in-flight specs free of charge.  The failure of a spec isolated after
    an executor death is reported only after the other victims have had
    their solo run, so an abort never discards innocent work.
    """

    #: stable identity, reported in ``Engine.summary()`` and manifests
    name = "abstract"
    #: whether a run past the engine's ``timeout`` can be cut short
    enforces_timeout = True

    def slots(self, engine) -> int:
        """Most specs this backend runs at once for ``engine``."""
        raise NotImplementedError

    def executor(self, engine, slots: int) -> Executor:
        """A fresh executor for a batch of at most ``slots`` at once."""
        raise NotImplementedError

    def kill(self, executor: Executor) -> None:
        """Stop ``executor`` now; whatever it still runs is abandoned."""
        executor.shutdown(wait=False, cancel_futures=True)

    def execute(self, todo: Dict[str, object], engine, *,
                land: Optional[LandFn] = None,
                fail: Optional[FailFn] = None,
                tick: Optional[TickFn] = None,
                policy: Optional[PoolPolicy] = None) -> Dict[str, object]:
        """Run every spec in ``todo`` (digest -> spec); return landed runs.

        The returned dict maps digest -> result for the specs that
        landed; with the default ``fail`` the first exhausted spec
        raises :class:`~repro.runner.engine.RunFailure` instead.
        """
        from repro.runner.engine import RunFailure
        out: Dict[str, object] = {}
        commit = land if land is not None else engine._commit
        policy = policy if policy is not None else PoolPolicy()
        slots = min(max(1, self.slots(engine)), len(todo))
        timeout = engine.timeout
        budget = (f" with a fresh {timeout}s budget"
                  if timeout is not None and self.enforces_timeout else "")
        pool = self.executor(engine, slots)
        queue = deque(todo)                # digests awaiting a shared run
        suspects: deque = deque()          # death victims, run alone
        isolated: set = set()              # every digest ever a suspect
        condemned: List[Tuple[str, BaseException]] = []
        inflight: Dict[object, str] = {}   # future -> digest
        deadlines: Dict[object, Optional[float]] = {}
        attempts: Dict[str, int] = {digest: 0 for digest in todo}

        def settle(digest: str, run) -> None:
            commit(digest, run)
            out[digest] = run

        def give_up(digest: str, exc: BaseException) -> None:
            if digest in isolated and (suspects or inflight):
                # other victims of an executor death are still owed
                # their solo run; report this failure once they have had it
                condemned.append((digest, exc))
                return
            engine.stats.failures += 1
            if fail is None:
                raise RunFailure(todo[digest], exc) from exc
            fail(digest, exc)

        def retry_or_fail(digest: str, exc: BaseException) -> None:
            attempts[digest] += 1
            if attempts[digest] > engine.retries or isinstance(exc,
                                                               Unretryable):
                give_up(digest, exc)
                return
            engine.stats.retries += 1
            policy.retrying(digest, exc)
            log.warning("[retries] resubmitting %s (%s) attempt %d/%d%s "
                        "after %r", digest[:12], todo[digest].describe(),
                        attempts[digest] + 1, engine.retries + 1, budget,
                        exc)
            (suspects if digest in isolated else queue).append(digest)

        def executor_death(lost: List[str], exc: BaseException) -> None:
            nonlocal pool
            # siblings that finished before the death keep their results
            victims = lost + drain_finished(inflight, deadlines, settle)
            self.kill(pool)
            policy.pool_died(victims, exc)
            isolated.update(victims)
            if len(victims) == 1:
                # the sole occupant killed its worker: blame is certain
                verdict = policy.solo_kill(victims[0], exc)
                if verdict == CHARGE:
                    retry_or_fail(victims[0], exc)
                elif verdict == SETTLE:
                    give_up(victims[0], exc)
                else:
                    suspects.append(victims[0])
            elif victims:
                log.info("[engine] pool died under %d specs; re-running "
                         "each alone", len(victims))
                suspects.extend(victims)
            pool = self.executor(engine, slots)

        try:
            while queue or suspects or inflight or condemned:
                if tick is not None:
                    tick()
                if condemned and not suspects and not inflight:
                    give_up(*condemned.pop(0))
                    continue
                # the shared queue drains first; suspects then run one at
                # a time with nothing else in flight
                source = queue if queue else suspects
                limit = (min(policy.window, slots) if queue
                         else 0 if inflight else 1)
                while source and len(inflight) < limit:
                    digest = source.popleft()
                    try:
                        future = pool.submit(engine._execute_fn, todo[digest])
                    except BrokenExecutor as exc:
                        # the executor died between waits; this spec never ran
                        source.appendleft(digest)
                        executor_death([], exc)
                        break
                    inflight[future] = digest
                    deadlines[future] = None    # set once the run starts
                if not inflight:
                    continue
                wait_for = POLL_INTERVAL if tick is not None else None
                if timeout is not None:
                    # a deadline starts with its run: poll for the rest
                    now = time.monotonic()
                    for future, deadline in deadlines.items():
                        if deadline is None and future.running():
                            deadlines[future] = now + timeout
                    left = min(POLL_INTERVAL if deadline is None
                               else max(0.0, deadline - now)
                               for deadline in deadlines.values())
                    wait_for = left if wait_for is None else min(wait_for,
                                                                 left)
                done, _ = wait(set(inflight), timeout=wait_for,
                               return_when=FIRST_COMPLETED)
                # successes first: a concurrent crash must not discard
                # finished work
                lost: List[str] = []
                broken: Optional[BaseException] = None
                for future in sorted(done,
                                     key=lambda f: f.exception() is not None):
                    digest = inflight.pop(future)
                    deadlines.pop(future, None)
                    exc = future.exception()
                    if exc is None:
                        settle(digest, future.result())
                    elif isinstance(exc, BrokenExecutor):
                        broken = exc
                        lost.append(digest)
                    else:
                        retry_or_fail(digest, exc)
                if broken is not None:
                    executor_death(lost, broken)
                    continue
                if timeout is None or not inflight:
                    continue
                expired, stuck = expire_deadlines(inflight, deadlines,
                                                  time.monotonic())
                cause = FuturesTimeout(f"exceeded {timeout}s budget")
                for digest in expired:
                    retry_or_fail(digest, cause)
                if stuck:
                    # a run the executor could not cancel holds its slot
                    # hostage: kill the executor and resubmit the
                    # innocent in-flight specs
                    # (a rebuild casualty, not a retry — fresh deadline,
                    # no charge)
                    innocents = list(inflight.values())
                    inflight.clear()
                    deadlines.clear()
                    self.kill(pool)
                    policy.timeout_killed(stuck)
                    if innocents:
                        log.info(
                            "[engine] resubmitting %d in-flight specs "
                            "after killing workers stuck on %s",
                            len(innocents), ",".join(d[:12] for d in stuck))
                    queue.extendleft(innocents)
                    pool = self.executor(engine, slots)
        finally:
            # kill rather than join: a stuck or half-dead worker must
            # never be able to hang shutdown
            self.kill(pool)
        return out

    def close(self) -> None:
        """Release backend resources (connections, pools).  Idempotent."""


class InlineExecutor(Executor):
    """Runs each submission in the calling thread before returning.

    ``submit`` hands back an already-finished future: an ``Exception``
    raised by the run becomes the future's exception, while a
    ``BaseException`` such as ``KeyboardInterrupt`` or
    :class:`~repro.runner.supervisor.CampaignInterrupted` propagates.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            future.set_exception(exc)
        else:
            future.set_result(result)
        return future


class InlineBackend(ExecutionBackend):
    """Execute specs serially in the calling process.

    The per-run ``timeout`` cannot be enforced here (there is no worker
    to kill); the engine emits its one-time ``RuntimeWarning`` when a
    timeout is configured but a batch executes inline.
    """

    name = "inline"
    enforces_timeout = False

    def slots(self, engine) -> int:
        return 1

    def executor(self, engine, slots: int) -> Executor:
        return InlineExecutor()


class ProcessPoolBackend(ExecutionBackend):
    """Fan specs over a process pool; results commit as they land.

    Args:
        jobs: worker processes; ``None`` uses the engine's ``jobs``.
    """

    name = "process-pool"

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def slots(self, engine) -> int:
        return self.jobs if self.jobs is not None else engine.jobs

    def executor(self, engine, slots: int) -> Executor:
        return new_pool(slots)

    def kill(self, executor: Executor) -> None:
        kill_workers(executor)


def make_backend(name: str, *, jobs: Optional[int] = None,
                 workers=None,
                 lease_timeout: Optional[float] = None
                 ) -> Optional[ExecutionBackend]:
    """Build a backend from its CLI name.

    ``"auto"`` returns ``None`` — the engine then picks inline or
    process-pool per batch from its ``jobs`` (the classic behaviour).
    ``"remote"`` requires ``workers``, a list of ``host:port`` worker
    addresses started with ``repro-sim worker``; ``lease_timeout``
    tunes its heartbeat lease window (``None`` keeps the default).
    """
    if name == "auto":
        return None
    if name == "inline":
        return InlineBackend()
    if name == "process-pool":
        return ProcessPoolBackend(jobs=jobs)
    if name == "remote":
        if not workers:
            raise ValueError(
                "remote backend needs worker addresses (host:port); start "
                "them with 'repro-sim worker' and pass --workers")
        from repro.runner.remote import RemoteBackend
        if lease_timeout is not None:
            return RemoteBackend(workers, lease_timeout=lease_timeout)
        return RemoteBackend(workers)
    raise ValueError(f"unknown backend {name!r}; choose from "
                     f"{', '.join(BACKEND_NAMES)}")
