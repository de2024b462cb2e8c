"""Benchmark-side tracing: spans around the calls into each layer.

Nothing here reaches inside ``src/``.  Spans are recorded by wrappers
the benchmark puts around public entry points:

- :class:`TracedExecute` replaces ``execute_spec`` through the
  ``Engine(execute_fn=...)`` hook and times ``Machine.from_spec``, the
  workload build, ``Machine.run``, ``instance.validate`` and
  ``account_run`` inside the worker that runs the spec;
- :class:`TracedEngine` wraps every ``Engine.run_specs`` batch, and
  :class:`TracedCache` every result-cache load and store;
- :meth:`Tracer.observer` wraps an engine observer (the publisher).

Each span records name, start, end, its own id, the id of the span that
caused it and a trace id (the spec digest for per-spec spans).  Spans
are kept in memory per process; a worker appends its spans for one spec
to ``spans-<pid>.jsonl`` when the spec ends, and the benchmark process
merges them at the end of the pass.  ``time.perf_counter`` reads the
system-wide monotonic clock on Linux, so spans from different processes
share one time axis.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.energy import account_run
from repro.machine import Machine
from repro.runner import BenchmarkRun, Engine, RunSpec
from repro.workloads import make_workload
from repro.workloads.registry import PARAMETRIC_WORKLOADS

__all__ = ["Tracer", "TracedExecute", "TracedEngine", "TracedCache",
           "load_worker_spans", "self_times",
           "chrome_trace"]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[str] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, trace_id: str = "",
             parent: Optional[str] = None):
        """Record ``name`` around the body; yields the span dict."""
        record = {
            "name": name, "id": f"{self._pid}.{len(self.spans)}",
            "parent": parent if parent is not None else (
                self._stack[-1] if self._stack else None),
            "trace_id": trace_id, "pid": self._pid,
            "start": time.perf_counter(), "end": None, "args": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except BaseException as exc:
            record["args"]["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def observer(self, observer):
        """Wrap an engine observer so each notification is a span."""
        def notify(digest: str, run) -> None:
            with self.span("runner.publish", trace_id=digest):
                observer(digest, run)
        return notify


def _build_workload(spec: RunSpec):
    # the same construction as repro.runner.engine.execute_spec; the
    # fingerprint checks fail if the two ever drift apart
    if spec.workload in PARAMETRIC_WORKLOADS:
        workload = PARAMETRIC_WORKLOADS[spec.workload](
            **dict(spec.workload_params))
    else:
        workload = make_workload(spec.workload, scale=spec.scale)
    if spec.seed and hasattr(workload, "seed"):
        workload.seed = spec.seed
    return workload


class TracedExecute:
    """A picklable ``execute_fn`` that times each layer of one spec.

    ``parent`` is set by the benchmark process to the id of the engine
    batch span before specs are submitted; pool workers receive it with
    the pickled callable.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.parent: Optional[str] = None

    def __call__(self, spec: RunSpec) -> BenchmarkRun:
        tracer = Tracer()
        digest = spec.digest()
        machine = None
        try:
            with tracer.span("runner.execute", trace_id=digest,
                             parent=self.parent) as root:
                with tracer.span("machine.build", trace_id=digest):
                    machine = Machine.from_spec(spec.machine)
                with tracer.span("workload.instantiate", trace_id=digest):
                    workload = _build_workload(spec)
                    instance = workload.instantiate(
                        machine, hc_kind=spec.hc_kind,
                        other_kind=spec.other_kind, hc_kinds=spec.hc_kinds)
                with tracer.span("sim.run", trace_id=digest):
                    result = machine.run(instance.programs,
                                         max_events=spec.max_events,
                                         max_cycles=spec.max_cycles)
                with tracer.span("workload.validate", trace_id=digest):
                    instance.validate(machine)
                with tracer.span("energy.account", trace_id=digest):
                    energy = account_run(result)
                return BenchmarkRun(
                    name=spec.workload,
                    hc_kinds=spec.hc_kinds or (spec.hc_kind,) * workload.n_hc,
                    n_cores=machine.config.n_cores, result=result,
                    energy=energy, lock_labels=dict(instance.lock_labels),
                    spec=spec)
        finally:
            if machine is not None:
                root["args"]["events"] = machine.sim.events_executed
                root["args"]["backend"] = type(machine.sim).__module__
            path = Path(self.out_dir) / f"spans-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as fh:
                for record in tracer.spans:
                    fh.write(json.dumps(record) + "\n")


class TracedCache:
    """Result-cache proxy that records a span per load and store."""

    def __init__(self, cache, tracer: Tracer) -> None:
        self._cache = cache
        self._tracer = tracer

    def load(self, digest: str):
        with self._tracer.span("runner.cache_load", trace_id=digest):
            return self._cache.load(digest)

    def store(self, digest: str, run, spec_dict=None) -> None:
        with self._tracer.span("runner.cache_store", trace_id=digest):
            self._cache.store(digest, run, spec_dict)

    def __getattr__(self, name: str):
        return getattr(self._cache, name)


class TracedEngine(Engine):
    """An :class:`Engine` whose batches, cache and specs are traced."""

    def __init__(self, tracer: Tracer, trace_dir: str, **kwargs) -> None:
        self.tracer = tracer
        self.traced_execute = TracedExecute(trace_dir)
        super().__init__(execute_fn=self.traced_execute, **kwargs)
        if self.cache is not None:
            self.cache = TracedCache(self.cache, tracer)

    @contextmanager
    def batch(self):
        """Span one batch; specs executed inside it name it as parent."""
        with self.tracer.span("runner.engine") as span:
            self.traced_execute.parent = span["id"]
            yield span

    def run_specs(self, specs):
        with self.batch():
            return super().run_specs(specs)


def load_worker_spans(trace_dir: str) -> List[Dict]:
    """Every span the workers of a traced pass wrote."""
    spans: List[Dict] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _covered(start: float, end: float,
             children: Iterable[Dict]) -> float:
    """Length of ``[start, end]`` covered by the union of child spans."""
    total = 0.0
    cursor = start
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], cursor), min(child["end"], end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[str, List[Dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    return {
        span["id"]: (span["end"] - span["start"]) - _covered(
            span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


def chrome_trace(spans: List[Dict], metadata: Dict) -> Dict:
    """Spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    selfs = self_times(spans)
    t0 = min((s["start"] for s in spans), default=0.0)
    events = [{
        "name": s["name"], "ph": "X", "pid": s["pid"], "tid": s["pid"],
        "ts": round((s["start"] - t0) * 1e6, 3),
        "dur": round((s["end"] - s["start"]) * 1e6, 3),
        "args": dict(s["args"], id=s["id"], parent=s["parent"],
                     trace_id=s["trace_id"],
                     self_us=round(selfs[s["id"]] * 1e6, 3)),
    } for s in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata}
