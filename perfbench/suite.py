"""The benchmark's four workloads, their outputs and their checks.

Each workload drives the simulator through its public API only:

- ``paper`` runs the full paper reproduction (Figures 7-10, Table IV,
  Figure 1 and Table I) through the harness ``run()`` functions and
  rebuilds the ``results_full.json`` digest from their results;
- ``serving`` runs an open-loop campaign (three serving workloads x
  five lock kinds x two offered loads at 64 cores) under a collecting
  :class:`~repro.runner.Supervisor`, as ``repro-sim campaign run
  --fail-policy collect`` would;
- ``sweep`` runs a YAML campaign through ``expand_campaign``, the
  :class:`~repro.runner.Engine` and a JSONL :class:`SamplePublisher`;
- ``table3-pure`` runs Figure 8's 16 Table III specs on the pure-Python
  kernel.

``paper`` and ``table3-pure`` are fixed reproductions.  The workload
seed drives the ``serving`` arrivals and the ``sweep`` spec seeds:
RunSpec seed = benchmark seed + 1, so seed 0 runs the serving
workloads' own default stream and no two benchmark seeds alias (RunSpec
seed 0 means "the workload's default").
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.latency import summarize_requests
from repro.runner import (BenchmarkRun, Engine, RunSpec, SamplePublisher,
                          Supervisor, expand_campaign, use_engine)
from repro.runner.fingerprint import result_fingerprint

__all__ = ["WORKLOADS", "Workload", "Collector", "NO_TRACE",
           "check_fingerprints", "check_failures", "model_error",
           "load_reference", "KNOWN_DEFECTS"]

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: (workload, lock) cells that fail by a known simulator defect and are
#: kept on purpose: msgqueue under plain TATAS never drains at >= 32
#: cores (producers starve in their blocking "done" acquire behind the
#: polling consumers) and trips the deadlock watchdog.  See README.md.
KNOWN_DEFECTS = {("msgqueue", "tatas"): "deadlock"}

#: serving arrival window in cycles; the watchdog fires at 50 windows so
#: a defective cell costs about a second instead of 12-18 s at the 30M
#: cycles ablate_overload allows
SERVING_WINDOW = 96_000

SERVING_YAML = """\
campaign: perfbench-serving
description: open-loop serving under plain and concurrency-restricted locks
defaults:
  benchmarks: [kvstore, msgqueue, webserver]
  locks: [tatas, cr4:tatas, mcs, cr4:mcs, glock]
  cores: [64]
  machine: {{glock_levels: 3}}
  seeds: [{seed}]
  max_cycles: {max_cycles}
matrix:
  - workload_params: {{offered_load: 2.0, duration: {window}, deadline: 3000}}
  - workload_params: {{offered_load: 8.0, duration: {window}, deadline: 3000}}
"""

SWEEP_YAML = """\
campaign: perfbench-sweep
description: tiny lock-kind matrix plus large meshes
defaults:
  seeds: [{seed}]
matrix:
  - benchmarks: [sctr, mctr, dbll, prco, actr]
    locks: [glock, mcs, tatas, ticket, clh, anderson]
    cores: [4, 8, 16]
    scale: 0.05
  - benchmarks: [sctr, mctr]
    locks: [glock, mcs]
    cores: [64, 256, 1024]
    scale: 1.0
    machine: {{glock_levels: 3}}
"""


class _NoTrace:
    """Stands in for a tracer when tracing is off."""

    def span(self, name: str, trace_id: str = "", parent=None):
        return nullcontext()

    def observer(self, observer):
        return observer


NO_TRACE = _NoTrace()


@dataclass
class Collector:
    """Engine observer: every result that lands, fresh or cached."""

    runs: Dict[str, BenchmarkRun] = field(default_factory=dict)
    #: every spec the engine scheduled, duplicates included
    scheduled: List[RunSpec] = field(default_factory=list)
    #: digest -> (spec, outcome status) for specs that did not land
    failures: Dict[str, Tuple[RunSpec, str]] = field(default_factory=dict)

    def __call__(self, digest: str, run: BenchmarkRun) -> None:
        self.runs[digest] = run
        self.scheduled.append(run.spec)


@contextmanager
def _batch(engine: Engine):
    """The traced engine's batch span, when the engine is traced."""
    batch = getattr(engine, "batch", None)
    with (batch() if batch is not None else nullcontext()):
        yield


def _rows(results: Dict) -> Dict:
    return {k: v for k, v in results.items() if k != "skipped"}


def paper_digest(results: Dict) -> Dict:
    """The ``results_full.json`` digest from harness results.

    Mirrors ``scripts/record_experiments.py`` for whichever harnesses
    ran, dropping the harnesses' ``skipped`` key (the recorder itself
    still trips over it).
    """
    digest: Dict = {}
    if "table1" in results:
        digest["table1"] = {"measured": results["table1"]["measured"]}
    if "fig7" in results:
        digest["fig7"] = {
            name: {label: p.aggregate_rate(21)
                   for label, p in profiles.items()}
            for name, profiles in _rows(results["fig7"]).items()}
    for key in ("fig8", "fig9"):
        if key in results:
            digest[key] = {"ratios": results[key]["ratios"],
                           "averages": results[key]["averages"]}
    if "fig10" in results:
        digest["fig10"] = {
            "ratios": {k: v["GL"] for k, v in results["fig10"]["bars"].items()},
            "averages": results["fig10"]["averages"]}
    if "table4" in results:
        digest["table4"] = {f"{n}/{l}": sp for (n, l), sp
                            in _rows(results["table4"]).items()}
    if "fig1" in results:
        digest["fig1"] = {cfg: v["normalized_time"]
                          for cfg, v in _rows(results["fig1"]).items()}
    # through JSON, as the recorder wrote it (int keys become strings)
    return json.loads(json.dumps(digest, default=float))


def model_error(digest: Dict) -> Tuple[float, int]:
    """Mean |measured - paper| over the Figure 8-10 GL/MCS ratios."""
    from repro.experiments.validate import validate_digest
    rows = [d for d in validate_digest(digest) if d.key.startswith("fig")]
    if not rows:
        return 0.0, 0
    return sum(abs(d.measured - d.paper) for d in rows) / len(rows), len(rows)


def _numeric_diffs(got, want, path: str = "") -> List[str]:
    """Paths where two JSON trees differ (exact comparison)."""
    if isinstance(want, dict) and isinstance(got, dict):
        out: List[str] = []
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                out.append(f"{path}/{key}: present on one side only")
            else:
                out += _numeric_diffs(got[key], want[key], f"{path}/{key}")
        return out
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
class Workload:
    """One benchmark workload.

    ``cold`` runs it on ``engine`` and returns its re-derived outputs;
    ``warm`` re-derives them from a fresh engine on the warm cache;
    ``check`` compares a pass against the committed references.
    """

    name = ""
    #: simulator backend the workload measures
    backend = "compiled"
    #: committed reference file in references/, or None
    reference = None
    #: whether the reference holds at every seed (else only at seed 0)
    seed_independent = True

    def first_spec(self, seed: int) -> RunSpec:
        raise NotImplementedError

    def cold(self, engine: Engine, seed: int, tracer, collector: Collector,
             work: Path):
        raise NotImplementedError

    def warm(self, engine: Engine, seed: int, collector: Collector,
             work: Path):
        raise NotImplementedError

    def ref_key(self, spec: RunSpec, digest: str) -> str:
        return digest

    def check(self, seed: int, derived, collector: Collector) -> List[str]:
        return []

    def model(self, derived) -> Tuple[float, int]:
        return 0.0, 0


class _Captured(Exception):
    def __init__(self, specs: List[RunSpec]) -> None:
        super().__init__("captured")
        self.specs = specs


class _CaptureEngine(Engine):
    """Records the first batch a harness submits instead of running it."""

    def run_specs(self, specs):
        raise _Captured(list(specs))


def _first_harness_spec(harness: Callable[[], object]) -> RunSpec:
    try:
        with use_engine(_CaptureEngine()):
            harness()
    except _Captured as captured:
        return captured.specs[0]
    raise RuntimeError("harness submitted no specs")


class _HarnessWorkload(Workload):
    """Runs harness ``run()`` functions and rebuilds their digest."""

    def harnesses(self) -> List[Tuple[str, Callable[[], object]]]:
        raise NotImplementedError

    def _run(self, engine: Engine, tracer) -> Dict:
        results = {}
        with use_engine(engine):
            for key, harness in self.harnesses():
                with tracer.span(f"harness.{key}"):
                    results[key] = harness()
        with tracer.span("analysis"):
            return paper_digest(results)

    def first_spec(self, seed):
        # Table I is a cost model and submits no specs
        first = next(h for k, h in self.harnesses() if k != "table1")
        return _first_harness_spec(first)

    def cold(self, engine, seed, tracer, collector, work):
        return self._run(engine, tracer)

    def warm(self, engine, seed, collector, work):
        return self._run(engine, NO_TRACE)

    def model(self, derived):
        return model_error(derived)

    def check(self, seed, derived, collector):
        if derived is None:  # a failed spec aborted the pass
            return []
        with open(ROOT / "results_full.json", encoding="utf-8") as fh:
            recorded = json.load(fh)
        want = {key: recorded[key] for key in derived}
        return [f"results_full.json{d}"
                for d in _numeric_diffs(derived, want)]


class Paper(_HarnessWorkload):
    name = "paper"
    reference = "paper.json"

    def harnesses(self):
        from repro.experiments import (fig01_ideal, fig07_contention,
                                       fig08_exectime, fig09_traffic,
                                       fig10_ed2p, table1_cost,
                                       table4_speedup)
        return [
            ("table1", lambda: table1_cost.run(49)),
            ("fig7", fig07_contention.run),
            ("fig8", fig08_exectime.run),
            ("fig9", fig09_traffic.run),
            ("fig10", fig10_ed2p.run),
            ("table4", table4_speedup.run),
            ("fig1", fig01_ideal.run),
        ]


class Table3Pure(_HarnessWorkload):
    name = "table3-pure"
    backend = "pure"
    # the compiled paper run's fingerprints: cross-backend parity
    reference = "paper.json"

    def harnesses(self):
        from repro.experiments import (fig08_exectime, fig09_traffic,
                                       fig10_ed2p)
        # one batch of 16 specs; Figures 9 and 10 reuse it from the memo
        return [("fig8", fig08_exectime.run), ("fig9", fig09_traffic.run),
                ("fig10", fig10_ed2p.run)]


class Serving(Workload):
    name = "serving"
    reference = "serving.json"
    seed_independent = False

    def campaign(self, seed: int):
        return expand_campaign(SERVING_YAML.format(
            seed=seed + 1, window=SERVING_WINDOW,
            max_cycles=50 * SERVING_WINDOW), source="serving")

    def first_spec(self, seed):
        return self.campaign(seed).specs[0]

    def _summaries(self, runs: Dict[str, BenchmarkRun]) -> Dict:
        return {digest: summarize_requests(
                    run.result.requests, run.result.makespan,
                    dict(run.spec.workload_params)["deadline"]).as_dict()
                for digest, run in runs.items()}

    def cold(self, engine, seed, tracer, collector, work):
        with tracer.span("runner.expand"):
            campaign = self.campaign(seed)
        supervisor = Supervisor(engine, fail_policy="collect",
                                install_signal_handlers=False)
        with _batch(engine):
            result = supervisor.run_campaign(campaign.specs)
        for outcome in result.outcomes:
            if not outcome.ok:
                collector.failures[outcome.digest] = (outcome.spec,
                                                      outcome.status)
        with tracer.span("analysis"):
            return self._summaries({o.digest: o.run for o in result.ok})

    def warm(self, engine, seed, collector, work):
        # failed cells never reach the cache; serve the rest from it
        specs = [run.spec for run in collector.runs.values()]
        runs = engine.run_specs(specs)
        return self._summaries({spec.digest(): run
                                for spec, run in zip(specs, runs)})

class Sweep(Workload):
    name = "sweep"
    reference = "sweep.json"

    def campaign(self, seed: int):
        return expand_campaign(SWEEP_YAML.format(seed=seed + 1),
                               source="sweep")

    def first_spec(self, seed):
        return self.campaign(seed).specs[0]

    def ref_key(self, spec, digest):
        # the microbenchmarks draw no randomness, so a cell's result is
        # the same at every seed; only its digest changes
        return (f"{spec.workload}/{spec.hc_kind}/{spec.machine.n_cores}/"
                f"{spec.scale}")

    def _publish(self, engine: Engine, seed: int, tracer,
                 path: Path) -> bytes:
        with tracer.span("runner.expand"):
            campaign = self.campaign(seed)
        publisher = SamplePublisher(path, fmt="jsonl")
        publisher.expect(campaign.digests())
        engine.observers.append(tracer.observer(publisher))
        engine.run_specs(campaign.specs)
        with tracer.span("runner.publish"):
            publisher.close()
        return path.read_bytes()

    def cold(self, engine, seed, tracer, collector, work):
        return self._publish(engine, seed, tracer, work / "cold.jsonl")

    def warm(self, engine, seed, collector, work):
        return self._publish(engine, seed, NO_TRACE, work / "warm.jsonl")


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Paper(), Serving(), Sweep(), Table3Pure())}


# ---------------------------------------------------------------------- #
# checks shared by the workloads
# ---------------------------------------------------------------------- #
def check_failures(failures: Dict[str, Tuple[RunSpec, str]]) -> List[str]:
    """Failures outside the disclosed known-defect cells."""
    problems = []
    for digest, (spec, status) in failures.items():
        if KNOWN_DEFECTS.get((spec.workload, spec.hc_kind)) != status:
            problems.append(f"{digest[:12]} {spec.describe()} failed "
                            f"({status})")
    return problems


def load_reference(name: str) -> Optional[Dict]:
    path = REFERENCE_DIR / name
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_fingerprints(workload: Workload, collector: Collector,
                       reference: Dict) -> Dict[str, str]:
    """Digest -> problem for each run that differs from its reference.

    A run with no reference entry is a failure unless the reference
    recorded that cell as a known-defect failure (a later fix may make
    it succeed).
    """
    expected = reference["fingerprints"]
    failed_before = reference.get("failed", {})
    problems = {}
    for digest, run in collector.runs.items():
        key = workload.ref_key(run.spec, digest)
        want = expected.get(key)
        if want is None and key in failed_before:
            continue
        got = result_fingerprint(run.result)
        if got != want:
            problems[digest] = (f"{digest[:12]} {run.spec.describe()}: "
                                f"fingerprint {got[:12]} != reference "
                                f"{(want or 'missing')[:12]}")
    return problems


def record_reference(workload: Workload, seed: int,
                     collector: Collector) -> Dict:
    """The reference document for one checked pass."""
    return {
        "workload": workload.name,
        "seed": seed,
        "fingerprints": {
            workload.ref_key(run.spec, digest): result_fingerprint(run.result)
            for digest, run in sorted(collector.runs.items())},
        "failed": {workload.ref_key(spec, digest): status
                   for digest, (spec, status)
                   in sorted(collector.failures.items())},
    }
