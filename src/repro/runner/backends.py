"""Pluggable execution backends for the experiment engine.

The :class:`~repro.runner.engine.Engine` owns *what* to run (memo and
disk-cache misses) and the bookkeeping of results; a backend owns *how*
the remaining specs execute:

- :class:`InlineBackend` — in this process, one spec at a time (the
  classic ``jobs=1`` path);
- :class:`ProcessPoolBackend` — fanned over a
  :class:`~concurrent.futures.ProcessPoolExecutor`; its ``execute`` is
  the package's only process-pool loop (see below);
- :class:`~repro.runner.remote.RemoteBackend` — socket-protocol workers
  started with ``repro-sim worker``, sharing the digest-keyed result
  cache (lives in :mod:`repro.runner.remote`).

Every backend lands results through the same hooks, so caching, the
campaign supervisor's outcome taxonomy, retries and manifests behave
identically whichever backend executes:

``execute(todo, engine, *, land=None, fail=None, tick=None, policy=None)``

- ``land(digest, run)`` — a result arrived; the default commits it to
  the engine's memo/disk cache.  Backends call it the moment a result
  lands (never batched at the end), so an abort later in the batch can
  never discard finished, cacheable work.
- ``fail(digest, exc)`` — a spec exhausted its retry budget; the
  default raises :class:`~repro.runner.engine.RunFailure` (the engine's
  classic fail-fast contract).  A collect-mode caller records an
  outcome instead and the batch keeps going.
- ``tick()`` — polled between scheduling steps so a supervising caller
  can checkpoint and raise on SIGINT/SIGTERM.
- ``policy`` — a :class:`PoolPolicy` steering how the process pool
  reacts to worker trouble; backends without local workers ignore it.

The pool loop does all of the mechanics once: submission within the
policy's admission window, a per-submission deadline (with the
``cancel()`` race handled), landing of finished survivors when the pool
dies, kill-and-rebuild, and **solo re-runs of pool-death victims** — a
``BrokenProcessPool`` cannot say which spec killed its worker, so every
spec lost with the pool is re-run alone, where blame is unambiguous.
The policy only decides: the bare engine's default charges a solo kill
one retry attempt, while the campaign
:class:`~repro.runner.supervisor.Supervisor` counts kills toward
quarantine, backs off, and sheds or heals the admission window.
"""

from __future__ import annotations

import logging
import signal as _signal
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

log = logging.getLogger("repro.runner")

__all__ = [
    "BACKEND_NAMES", "CHARGE", "ExecutionBackend", "InlineBackend",
    "PoolPolicy", "ProcessPoolBackend", "RERUN", "SETTLE", "drain_finished",
    "expire_deadlines", "kill_workers", "make_backend", "new_pool",
    "pool_worker_init",
]

#: the names ``make_backend`` (and the CLI ``--backend`` flag) accept
BACKEND_NAMES = ("auto", "inline", "process-pool", "remote")

#: longest the pool loop blocks while a ``tick`` hook is polled
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
    """A pool whose workers restore default signal dispositions.

    Workers are forked from the campaign process, so they inherit any
    SIGINT/SIGTERM checkpoint handlers the supervisor installed — which
    would shield a hung worker from ``terminate()``.  The initializer
    puts the defaults back.
    """
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
    timeout charge, and ``stuck`` lists those a worker was still running
    (the pool must be killed to free it).  A future that completes in
    the race with ``cancel()`` is not expired: it stays in flight for
    the next collection, so its result is never discarded.
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
# the backend interface
# ---------------------------------------------------------------------- #
class ExecutionBackend:
    """Executes a batch of cache-miss specs on behalf of an engine.

    Subclasses implement :meth:`execute`; the engine and the campaign
    supervisor parameterize result landing, failure handling and pool
    policy through the ``land``/``fail``/``tick``/``policy`` hooks
    documented in the module docstring.
    """

    #: stable identity, reported in ``Engine.summary()`` and manifests
    name = "abstract"

    def execute(self, todo: Dict[str, object], engine, *,
                land: Optional[LandFn] = None,
                fail: Optional[FailFn] = None,
                tick: Optional[TickFn] = None,
                policy: Optional["PoolPolicy"] = None) -> Dict[str, object]:
        """Run every spec in ``todo`` (digest -> spec); return landed runs.

        The returned dict maps digest -> result for the specs that
        landed; with the default ``fail`` the first exhausted spec
        raises :class:`~repro.runner.engine.RunFailure` instead.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (connections, pools).  Idempotent."""

    def describe(self) -> str:
        """Human-readable identity for logs and summaries."""
        return self.name


def _default_fail(todo: Dict[str, object]):
    from repro.runner.engine import RunFailure

    def fail(digest: str, exc: BaseException) -> None:
        raise RunFailure(todo[digest], exc) from exc
    return fail


class InlineBackend(ExecutionBackend):
    """Execute specs serially in the calling process.

    The per-run ``timeout`` cannot be enforced here (there is no worker
    to kill); the engine emits its one-time ``RuntimeWarning`` when a
    timeout is configured but a batch executes inline.
    """

    name = "inline"

    def execute(self, todo, engine, *, land=None, fail=None, tick=None,
                policy=None):
        from repro.runner.engine import RunFailure
        out: Dict[str, object] = {}
        commit = land if land is not None else engine._commit
        settle_fail = fail if fail is not None else _default_fail(todo)
        for digest, spec in todo.items():
            if tick is not None:
                tick()
            try:
                run = engine._execute_with_retry(spec)
            except RunFailure as failure:
                cause = failure.cause if failure.cause is not None else failure
                settle_fail(digest, cause)
            else:
                # commit as results land, so an abort later in the
                # batch never discards finished (cacheable) work
                commit(digest, run)
                out[digest] = run
        return out


#: :meth:`PoolPolicy.solo_kill` verdicts for a spec that killed its
#: worker while running alone: charge it one retry attempt, re-run it
#: alone free of charge, or settle it as failed now (quarantine)
CHARGE, RERUN, SETTLE = "charge", "rerun", "settle"


class PoolPolicy:
    """How :meth:`ProcessPoolBackend.execute` reacts to worker trouble.

    The defaults are the bare engine's: admission is capped only by the
    pool size, a spec that kills its worker while running alone costs
    one retry attempt like any other failure, and nothing is counted.
    The campaign :class:`~repro.runner.supervisor.Supervisor` is a
    policy too: it overrides every hook.
    """

    #: most specs admitted to the pool at once (the pool size caps it)
    window: int = sys.maxsize

    def retrying(self, digest: str, exc: BaseException) -> None:
        """A failed attempt of ``digest`` was charged; it will run again."""

    def solo_kill(self, digest: str, exc: BaseException) -> str:
        """``digest`` killed its worker while alone: return a verdict."""
        return CHARGE

    def pool_died(self, victims: List[str], exc: BaseException) -> None:
        """The pool died under ``victims``; called before the rebuild."""

    def timeout_killed(self, stuck: List[str]) -> None:
        """Workers stuck on ``stuck`` were killed; the pool is rebuilt."""


class ProcessPoolBackend(ExecutionBackend):
    """Fan specs over a process pool; results commit as they land.

    Collection waits for the *first* completion, so one slow or hung
    spec never head-of-line-blocks the other N-1 results.  Each
    (re)submission gets its own wall-clock deadline measured from
    submission; a resubmission therefore starts a *fresh* budget, which
    is logged as a ``[retries]`` warning rather than happening silently.
    A worker stuck past its deadline is charged a timeout and the pool
    is rebuilt, resubmitting the other in-flight specs free of charge.
    Pool deaths are isolated as the module docstring describes; the
    failure of a spec under isolation is reported only after the other
    victims have had their solo run, so an abort never discards
    innocent work.

    Args:
        jobs: worker processes; ``None`` uses the engine's ``jobs``.
    """

    name = "process-pool"

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def execute(self, todo, engine, *, land=None, fail=None, tick=None,
                policy=None):
        out: Dict[str, object] = {}
        commit = land if land is not None else engine._commit
        on_exhausted = fail if fail is not None else _default_fail(todo)
        policy = policy if policy is not None else PoolPolicy()
        jobs = self.jobs if self.jobs is not None else engine.jobs
        max_workers = min(max(1, jobs), len(todo))
        timeout = engine.timeout
        pool = new_pool(max_workers)
        queue = deque(todo)                # digests awaiting a shared run
        suspects: deque = deque()          # pool-death victims, run alone
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
                # other victims of a pool death are still owed their
                # solo run; report this failure once they have had it
                condemned.append((digest, exc))
                return
            engine.stats.failures += 1
            on_exhausted(digest, exc)

        def retry_or_fail(digest: str, exc: BaseException) -> None:
            attempts[digest] += 1
            if attempts[digest] > engine.retries:
                give_up(digest, exc)
                return
            engine.stats.retries += 1
            policy.retrying(digest, exc)
            log.warning(
                "[retries] resubmitting %s (%s) attempt %d/%d with a "
                "fresh %ss budget after %r", digest[:12],
                todo[digest].describe(), attempts[digest] + 1,
                engine.retries + 1, timeout, exc)
            (suspects if digest in isolated else queue).append(digest)

        def pool_death(lost: List[str], exc: BaseException) -> None:
            nonlocal pool
            # siblings that finished before the death keep their results
            victims = lost + drain_finished(inflight, deadlines, settle)
            kill_workers(pool)
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
            pool = new_pool(max_workers)

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
                limit = (min(policy.window, max_workers) if queue
                         else 0 if inflight else 1)
                while source and len(inflight) < limit:
                    digest = source.popleft()
                    try:
                        future = pool.submit(engine._execute_fn, todo[digest])
                    except BrokenProcessPool as exc:
                        # the pool died between waits; this spec never ran
                        source.appendleft(digest)
                        pool_death([], exc)
                        break
                    inflight[future] = digest
                    deadlines[future] = (time.monotonic() + timeout
                                         if timeout is not None else None)
                if not inflight:
                    continue
                wait_for = POLL_INTERVAL if tick is not None else None
                if timeout is not None:
                    left = max(0.0, min(deadlines.values()) - time.monotonic())
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
                    elif isinstance(exc, BrokenProcessPool):
                        broken = exc
                        lost.append(digest)
                    else:
                        retry_or_fail(digest, exc)
                if broken is not None:
                    pool_death(lost, broken)
                    continue
                if timeout is None or not inflight:
                    continue
                expired, stuck = expire_deadlines(inflight, deadlines,
                                                  time.monotonic())
                cause = FuturesTimeout(f"exceeded {timeout}s budget")
                for digest in expired:
                    retry_or_fail(digest, cause)
                if stuck:
                    # stuck workers hold the pool hostage: kill it and
                    # resubmit the innocent in-flight specs (a rebuild
                    # casualty, not a retry — fresh deadline, no charge)
                    innocents = list(inflight.values())
                    inflight.clear()
                    deadlines.clear()
                    kill_workers(pool)
                    policy.timeout_killed(stuck)
                    if innocents:
                        log.info(
                            "[engine] resubmitting %d in-flight specs "
                            "after killing workers stuck on %s",
                            len(innocents), ",".join(d[:12] for d in stuck))
                    queue.extendleft(innocents)
                    pool = new_pool(max_workers)
        finally:
            # terminate rather than join: a stuck or half-dead worker must
            # never be able to hang shutdown
            kill_workers(pool)
        return out


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
