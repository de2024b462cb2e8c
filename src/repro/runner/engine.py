"""The experiment engine: executes batches of :class:`RunSpec`.

Replaces the old per-process memo dict in ``repro.experiments.common``
with a three-tier story:

1. an in-process **memo** (digest -> :class:`BenchmarkRun`), preserving
   the classic ``run_benchmark`` is-identical semantics within a process;
2. a persistent, content-addressed **disk cache**
   (:class:`~repro.runner.cache.ResultCache`) keyed by the spec digest,
   so a full figure suite is resumable across interpreter restarts;
3. actual **execution**, delegated to a pluggable
   :class:`~repro.runner.backends.ExecutionBackend`: inline in this
   process, fanned over a process pool, or shipped to socket-protocol
   remote workers (``repro-sim worker``) that share the same
   digest-keyed cache.

Simulations are deterministic pure functions of their spec (workloads
draw only from RNGs seeded by the spec), so every backend produces
identical results and cached entries are safe to reuse anywhere.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

log = logging.getLogger("repro.runner")

from repro.energy import EnergyAccount, account_run, ed2p
from repro.machine import Machine, RunResult
from repro.runner.backends import (ExecutionBackend, InlineBackend,
                                   ProcessPoolBackend, make_backend)
from repro.runner.cache import CacheCorruption, ResultCache
from repro.runner.spec import RunSpec
from repro.workloads import make_workload
from repro.workloads.registry import PARAMETRIC_WORKLOADS

__all__ = ["BenchmarkRun", "Engine", "EngineStats", "RunFailure",
           "execute_spec"]

@dataclass
class BenchmarkRun:
    """One benchmark execution and its derived metrics."""

    name: str
    hc_kinds: Tuple[str, ...]
    n_cores: int
    result: RunResult
    energy: EnergyAccount
    lock_labels: Dict[int, str]
    #: the spec that produced this run (None for hand-built instances)
    spec: Optional[RunSpec] = None

    @property
    def makespan(self) -> int:
        return self.result.makespan

    @property
    def total_traffic(self) -> int:
        return self.result.total_traffic

    @property
    def ed2p(self) -> float:
        return ed2p(self.energy, self.result.makespan)


class RunFailure(RuntimeError):
    """A spec failed (or timed out) after exhausting its retry budget."""

    def __init__(self, spec: RunSpec, cause: BaseException) -> None:
        super().__init__(f"run failed for {spec.describe()}: {cause!r}")
        self.spec = spec
        self.cause = cause


def _build_workload(spec: RunSpec):
    if spec.workload in PARAMETRIC_WORKLOADS:
        workload = PARAMETRIC_WORKLOADS[spec.workload](
            **dict(spec.workload_params))
    else:
        if spec.workload_params:
            raise ValueError(
                f"workload {spec.workload!r} is scale-driven and takes no "
                f"workload_params (got {spec.workload_params})")
        workload = make_workload(spec.workload, scale=spec.scale)
    if spec.seed and hasattr(workload, "seed"):
        workload.seed = spec.seed  # deterministic function of the spec
    return workload


def execute_spec(spec: RunSpec) -> BenchmarkRun:
    """Run one spec on a fresh machine (the pool/remote-worker entry point)."""
    machine = Machine.from_spec(spec.machine)
    if spec.sanitize and machine.sanitizer is None:
        # an ambient sanitizer (e.g. pytest --sanitize) already covers the run
        from repro.verify.invariants import attach_sanitizer
        attach_sanitizer(machine)
    workload = _build_workload(spec)
    instance = workload.instantiate(machine, hc_kind=spec.hc_kind,
                                    other_kind=spec.other_kind,
                                    hc_kinds=spec.hc_kinds)
    result = machine.run(instance.programs, max_events=spec.max_events,
                         max_cycles=spec.max_cycles)
    instance.validate(machine)
    return BenchmarkRun(
        name=spec.workload,
        hc_kinds=spec.hc_kinds or (spec.hc_kind,) * workload.n_hc,
        n_cores=machine.config.n_cores,
        result=result,
        energy=account_run(result),
        lock_labels=dict(instance.lock_labels),
        spec=spec,
    )


@dataclass
class EngineStats:
    """Counters for one engine's lifetime (reported in ``summary()``)."""

    scheduled: int = 0      # specs submitted
    executed: int = 0       # actual simulator runs performed
    memo_hits: int = 0      # served from the in-process memo
    disk_hits: int = 0      # served from the persistent cache
    corrupt_dropped: int = 0  # unreadable cache entries deleted
    retries: int = 0        # re-submissions after a failure/timeout
    failures: int = 0       # specs that exhausted their retry budget


class Engine:
    """Executes RunSpecs with memoization, disk caching and parallelism.

    Args:
        jobs: worker processes; 1 runs inline in this process (under the
            default ``backend="auto"`` selection).
        cache_dir: root of the persistent result cache; ``None`` disables
            disk caching (the in-process memo always applies).
        timeout: per-run wall-clock seconds (enforced by the pool and
            remote backends; a run exceeding it counts as a failed
            attempt).
        retries: extra attempts per spec after a failure or timeout.
        execute_fn: run callable, overridable for tests; must be a
            module-level (picklable) function in pool mode.  The remote
            backend always runs the *worker's* ``execute_spec``.
        backend: ``"auto"`` (default) picks inline or process-pool per
            batch from ``jobs``; or an explicit name (``"inline"``,
            ``"process-pool"``) or :class:`ExecutionBackend` instance
            (e.g. a configured
            :class:`~repro.runner.remote.RemoteBackend`).
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None,
                 timeout: Optional[float] = None, retries: int = 0,
                 execute_fn: Callable[[RunSpec], BenchmarkRun] = execute_spec,
                 backend: Union[None, str, ExecutionBackend] = None,
                 ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.timeout = timeout
        self.retries = retries
        self.stats = EngineStats()
        self._execute_fn = execute_fn
        self._memo: Dict[str, BenchmarkRun] = {}
        self._warned_inline_timeout = False
        if isinstance(backend, str):
            backend = make_backend(backend, jobs=jobs)
        self.backend: Optional[ExecutionBackend] = backend
        self._auto_inline = InlineBackend()
        self._auto_pool = ProcessPoolBackend()
        #: callables invoked with ``(digest, run)`` every time a result
        #: becomes available — freshly executed *or* served from a cache
        #: tier.  The streaming sample publisher subscribes here.
        self.observers: List[Callable[[str, BenchmarkRun], None]] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def backend_name(self) -> str:
        """The configured execution identity (summaries, manifests)."""
        if self.backend is not None:
            return self.backend.name
        return "inline" if self.jobs == 1 else "process-pool"

    def run_spec(self, spec: RunSpec) -> BenchmarkRun:
        """Run (or recall) a single spec."""
        return self.run_specs([spec])[0]

    def run_specs(self, specs: Iterable[RunSpec]) -> List[BenchmarkRun]:
        """Run a batch, preserving order; duplicates execute once.

        Cache lookups happen up front; the remaining misses go to the
        execution backend, and every fresh result is committed to the
        memo and the disk cache the moment it lands.
        """
        specs = list(specs)
        out: List[Optional[BenchmarkRun]] = [None] * len(specs)
        todo_specs: Dict[str, RunSpec] = {}
        todo_slots: Dict[str, List[int]] = {}
        for i, spec in enumerate(specs):
            digest = spec.digest()
            self.stats.scheduled += 1
            cached = self._lookup(digest)
            if cached is not None:
                out[i] = cached
            else:
                todo_specs.setdefault(digest, spec)
                todo_slots.setdefault(digest, []).append(i)
        if todo_specs:
            backend = self._select_backend(todo_specs)
            if (backend.name == "inline" and self.timeout is not None
                    and not self._warned_inline_timeout):
                self._warned_inline_timeout = True
                warnings.warn(
                    "Engine timeout= is only enforced in pool mode "
                    "(jobs > 1 with more than one spec to run); this "
                    "batch executes inline and cannot be interrupted — "
                    "see docs/running-experiments.md",
                    RuntimeWarning, stacklevel=3,
                )
            fresh = backend.execute(todo_specs, self)
            for digest, run in fresh.items():
                for i in todo_slots[digest]:
                    out[i] = run
        return out  # type: ignore[return-value]

    def clear_memory_cache(self) -> None:
        """Drop the in-process memo (the disk cache is untouched)."""
        self._memo.clear()

    def close(self) -> None:
        """Release the backend's resources (remote connections, pools)."""
        if self.backend is not None:
            self.backend.close()

    def summary(self) -> str:
        """One grep-friendly line: what ran, what came from which cache."""
        s = self.stats
        cache = str(self.cache.root) if self.cache else "off"
        return (f"[engine] specs={s.scheduled} executed={s.executed} "
                f"memo_hits={s.memo_hits} disk_hits={s.disk_hits} "
                f"corrupt={s.corrupt_dropped} retries={s.retries} "
                f"backend={self.backend_name} jobs={self.jobs} "
                f"cache={cache}")

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _select_backend(self, todo: Dict[str, RunSpec]) -> ExecutionBackend:
        """The backend for this batch (explicit, or the classic auto pick)."""
        if self.backend is not None:
            return self.backend
        if self.jobs > 1 and len(todo) > 1:
            return self._auto_pool
        return self._auto_inline

    def _lookup(self, digest: str) -> Optional[BenchmarkRun]:
        if digest in self._memo:
            self.stats.memo_hits += 1
            run = self._memo[digest]
            self._notify(digest, run)
            return run
        if self.cache is not None:
            try:
                run = self.cache.load(digest)
            except CacheCorruption:
                self.stats.corrupt_dropped += 1
                return None
            if run is not None:
                self.stats.disk_hits += 1
                self._memo[digest] = run
                self._notify(digest, run)
                return run
        return None

    def _commit(self, digest: str, run: BenchmarkRun) -> None:
        self.stats.executed += 1
        self._memo[digest] = run
        if self.cache is not None:
            spec = getattr(run, "spec", None)  # test stubs may lack it
            self.cache.store(digest, run,
                             spec.to_dict() if spec is not None else None)
        self._notify(digest, run)

    def _notify(self, digest: str, run: BenchmarkRun) -> None:
        for observer in self.observers:
            observer(digest, run)
