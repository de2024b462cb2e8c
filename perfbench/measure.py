"""Measurement process: cold passes, warm passes, a traced pass, checks.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path,
the simulator backend pinned through ``REPRO_SIM_BACKEND`` and its own
process group.  Writes one JSON document to ``--out``.

Phases (``--phase``):

- ``setup`` builds the workload's first ``Machine`` and exits; the
  measure phase times whole interpreters of it as ``setup_s``;
- ``measure`` runs cold passes, warm passes and setup probes in turn
  until ``--seconds`` have passed and checks every pass (``--trace 0``),
  or runs one untraced and one traced cold pass and derives the
  per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.runner import Engine, RunFailure
from repro.runner.fingerprint import result_fingerprint
from repro.runner.outcome import classify_failure
from repro.sim import kernel

from perfbench import spans as tracing
from perfbench.suite import (NO_TRACE, REFERENCE_DIR, WORKLOADS, Collector,
                             Workload, check_failures, check_fingerprints,
                             load_reference, record_reference)

#: worker processes per engine: the same on every host with >= 2 CPUs,
#: so the work split does not depend on the machine
JOBS = min(2, os.cpu_count() or 1)
#: the traced run's warm passes repeat until they add up to this long
WARM_SECONDS = 1.0
#: fewest samples behind the wall_s and setup_s medians
MIN_COLD_PASSES = 2
SETUP_MIN_SAMPLES = 5
#: the module a simulator of each backend comes from
SIM_MODULES = {"pure": "repro.sim._kernel_pure",
               "compiled": "repro.sim._ckernel"}


@dataclass
class Pass:
    """One cold pass of a workload."""

    wall_s: float
    derived: object
    collector: Collector
    #: the pass's scratch directory; its result cache is ``dir/cache``
    dir: Path
    stats: object

    @property
    def cache_dir(self) -> Path:
        return self.dir / "cache"

    @property
    def attempted(self) -> int:
        return len(self.collector.runs) + len(self.collector.failures)

    def fingerprints(self) -> Dict[str, str]:
        return {digest: result_fingerprint(run.result)
                for digest, run in self.collector.runs.items()}


def cold_pass(workload: Workload, seed: int, work: Path,
              tracer=None, trace_dir: Optional[Path] = None) -> Pass:
    """Run ``workload`` once on a fresh engine and an empty cache.

    With a ``tracer`` the engine is a :class:`TracedEngine` whose
    workers write their spans to ``trace_dir``.
    """
    pass_dir = Path(tempfile.mkdtemp(dir=work, prefix="pass-"))
    cache_dir = str(pass_dir / "cache")
    if tracer is not None:
        engine = tracing.TracedEngine(tracer, str(trace_dir), jobs=JOBS,
                                      cache_dir=cache_dir)
    else:
        tracer = NO_TRACE
        engine = Engine(jobs=JOBS, cache_dir=cache_dir)
    collector = Collector()
    engine.observers.append(collector)
    derived = None
    gc.collect()  # leftovers of the previous pass are not this pass's cost
    start = time.perf_counter()
    try:
        with tracer.span("workload"):
            derived = workload.cold(engine, seed, tracer, collector,
                                    pass_dir)
    except RunFailure as exc:
        # the engine aborts the batch on the first failed spec
        collector.failures[exc.spec.digest()] = (exc.spec,
                                                 classify_failure(exc.cause))
    wall = time.perf_counter() - start
    return Pass(wall, derived, collector, pass_dir, engine.stats)


def check_pass(workload: Workload, seed: int, first: Pass, later: Pass,
               record: bool = False) -> Tuple[List[str], Set[str]]:
    """Problems with ``later``, and the digests whose results are wrong.

    The first pass is compared with the committed reference (skipped
    while recording one); every later pass must reproduce the first.
    """
    problems = (workload.check(seed, later.derived, later.collector)
                + check_failures(later.collector.failures))
    wrong: Dict[str, str] = {}
    if later is first and workload.reference and not record:
        reference = load_reference(workload.reference)
        if reference is None:
            problems.append(f"missing reference {workload.reference}")
        elif workload.seed_independent or seed == reference["seed"]:
            wrong = check_fingerprints(workload, later.collector, reference)
    elif later is not first:
        expected = first.fingerprints()
        wrong = {digest: f"{digest[:12]}: result differs between cold "
                         f"passes" for digest, fingerprint
                 in later.fingerprints().items()
                 if fingerprint != expected.get(digest)}
    if later.derived is None and not later.collector.failures:
        problems.append("pass produced no output")
    return problems + list(wrong.values()), set(wrong)


def warm_passes(workload: Workload, seed: int, cold: Pass,
                problems: List[str], seconds: float) -> List[float]:
    """Serve the workload from ``cold``'s cache for ``seconds`` (>= once).

    Each warm pass is a fresh Engine that must execute nothing and
    re-derive the cold pass's outputs; failures go to ``problems``.
    """
    times: List[float] = []
    while not times or sum(times) < seconds:
        engine = Engine(jobs=JOBS, cache_dir=str(cold.cache_dir))
        start = time.perf_counter()
        derived = workload.warm(engine, seed, cold.collector, cold.dir)
        times.append(time.perf_counter() - start)
        if engine.stats.executed:
            problems.append(f"warm pass executed {engine.stats.executed} "
                            f"specs")
        if derived != cold.derived:
            problems.append("warm pass re-derived different outputs")
        if problems:
            break
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process and any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------- #
# per-layer metrics of a traced pass
# ---------------------------------------------------------------------- #
def _sum_spans(spans: List[Dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def layer_metrics(workload: Workload, traced: Pass,
                  spans: List[Dict]) -> Dict[str, float]:
    """Counts and layer times of a traced pass (defined in README.md)."""
    runs = list(traced.collector.runs.values())
    results = [run.result for run in runs]

    def counter(name: str) -> int:
        return sum(r.counters.get(name, 0) for r in results)

    selfs = tracing.self_times(spans)
    executes = [s for s in spans if s["name"] == "runner.execute"]
    events = sum(s["args"].get("events", 0) for s in executes)
    sim_run = _sum_spans(spans, "sim.run")
    l1 = counter("l1.accesses")
    requests = [rec for r in results for rec in (r.requests or ())]
    model_err, model_pairs = workload.model(traced.derived)
    out = {
        "sim.run_s": sim_run,
        "sim.events": events,
        "sim.ns_per_event": sim_run * 1e9 / events if events else 0.0,
        "sim.cycles": sum(r.makespan for r in results),
        "cpu.instructions": sum(r.instructions for r in results),
    }
    for category in ("busy", "memory", "lock", "barrier"):
        out[f"cpu.cycles.{category}"] = sum(
            r.cycles_by_category.get(category, 0) for r in results)
    out.update({
        "mem.l1.accesses": l1,
        "mem.l1.hit_ratio": 1.0 - counter("l1.misses") / l1 if l1 else 0.0,
        "mem.l1.spin_cycles": counter("l1.spin_cycles"),
        "mem.l2.accesses": counter("l2.accesses"),
        "mem.l2.invalidations": counter("l2.invalidations"),
        "mem.l2.forwards": counter("l2.forwards"),
        "mem.dram.reads": counter("mem.reads"),
    })
    for category in ("request", "reply", "coherence"):
        out[f"noc.bytes.{category}"] = sum(
            r.traffic.get(category, 0) for r in results)
    out["noc.byte_hops"] = sum(r.byte_hops for r in results)
    out["core.gline.signals"] = counter("gline.signals")
    out["core.glock.acquires"] = counter("glock.acquires")
    for name in ("parks", "unparks", "rotations", "timer_admits",
                 "park_timeouts"):
        out[f"locks.cr.{name}"] = counter(f"cr.{name}")
    out["workloads.serving.requests"] = len(requests)
    out["workloads.serving.shed_frac"] = (
        sum(1 for rec in requests if not rec[4]) / len(requests)
        if requests else 0.0)
    out["workloads.serving.retries"] = sum(rec[5] for rec in requests)
    out["machine.build_s"] = _sum_spans(spans, "machine.build")
    out["workloads.instantiate_s"] = _sum_spans(spans, "workload.instantiate")
    out["workloads.validate_s"] = _sum_spans(spans, "workload.validate")
    out["energy.account_s"] = _sum_spans(spans, "energy.account")
    # harness code outside the engine (post-run analysis and the
    # harnesses' own spec lists) plus the benchmark's derivation step
    out["analysis.s"] = (
        sum(selfs[s["id"]] for s in spans if s["name"].startswith("harness."))
        + _sum_spans(spans, "analysis"))
    out["analysis.model_err"] = model_err
    out["analysis.model_pairs"] = model_pairs
    out["runner.expand_s"] = _sum_spans(spans, "runner.expand")
    # the engine computes one digest per scheduled spec; replay them
    start = time.perf_counter()
    for spec in traced.collector.scheduled:
        spec.digest()
    for spec, _status in traced.collector.failures.values():
        spec.digest()
    out["runner.digest_s"] = time.perf_counter() - start
    out["runner.cache_store_s"] = _sum_spans(spans, "runner.cache_store")
    out["runner.cache_load_s"] = _sum_spans(spans, "runner.cache_load")
    out["runner.publish_s"] = _sum_spans(spans, "runner.publish")
    # engine batch time covered by no spec, cache or publisher span
    out["runner.dispatch_s"] = sum(selfs[s["id"]] for s in spans
                                   if s["name"] == "runner.engine")
    out["runner.executed"] = traced.stats.executed
    out["runner.memo_hits"] = traced.stats.memo_hits
    out["runner.disk_hits"] = traced.stats.disk_hits
    return out


# ---------------------------------------------------------------------- #
# phases
# ---------------------------------------------------------------------- #
def check_backend(workload: Workload) -> Optional[str]:
    """Why this process may not measure ``workload``, or None."""
    if kernel.active_backend() != workload.backend:
        return (f"{workload.name} measures the {workload.backend} backend "
                f"but {kernel.active_backend()} is active")
    return None


def phase_setup(workload: Workload, seed: int) -> Dict:
    from repro.machine import Machine
    spec = workload.first_spec(seed)
    machine = Machine.from_spec(spec.machine)
    return {"first_machine_cores": machine.config.n_cores}


def setup_probe(workload: Workload, seed: int,
                python_flags: Tuple[str, ...] = ()) -> Tuple[float, str]:
    """Time a fresh interpreter up to the workload's first Machine.

    Returns the wall time and the probe's stderr (``-X importtime``
    output when asked for).
    """
    cmd = [sys.executable, *python_flags, "-m", "perfbench.measure",
           "--phase", "setup", "--workload", workload.name,
           "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def import_times(stderr: str) -> Dict[str, float]:
    """Self import time per package from ``-X importtime`` output."""
    totals = {"repro": 0.0, "numpy": 0.0, "yaml": 0.0, "other": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        totals[package if package in totals else "other"] += int(self_us)
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}


def write_reference(workload: Workload, seed: int, first: Pass) -> None:
    if workload.reference != f"{workload.name}.json":
        raise SystemExit(f"{workload.name} checks against "
                         f"{workload.reference}; record that workload")
    path = REFERENCE_DIR / workload.reference
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record_reference(workload, seed, first.collector), fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def phase_measure(workload: Workload, seed: int, seconds: float,
                  trace: bool, work: Path, record: bool,
                  probe=setup_probe) -> Dict:
    """Cold passes, warm-pass checks and setup probes, interleaved.

    The host's speed drifts over seconds, so cold passes and setup
    probes are taken in turn across the whole ``seconds`` window rather
    than one after another; each metric is a median over the same mix.
    After each cold pass a fresh engine serves it again from its cache
    (timed as ``runner.warm_s`` in the traced run).  ``probe`` times one
    fresh interpreter (tests substitute a stub).
    """
    out: Dict = {"problems": [], "wall_s": [], "setup_s": []}
    problems = out["problems"]
    probe(workload, seed)  # untimed: compiles bytecode
    first: Optional[Pass] = None
    out["attempted"] = out["failed"] = 0
    start = time.perf_counter()
    while True:
        current = cold_pass(workload, seed, work)
        first = first or current
        out["wall_s"].append(current.wall_s)
        checked, wrong = check_pass(workload, seed, first, current, record)
        problems += checked
        out["attempted"] += current.attempted
        out["failed"] += len(current.collector.failures) + len(wrong)
        if not problems:
            warm_s = warm_passes(workload, seed, current, problems,
                                 WARM_SECONDS if trace else 0.0)
        if trace or problems:
            break
        out["setup_s"].append(probe(workload, seed)[0])
        if current is not first:
            # only the first pass stays in memory, so the process does
            # not grow with the number of passes
            shutil.rmtree(current.dir, ignore_errors=True)
            del current
        if time.perf_counter() - start >= seconds and len(
                out["wall_s"]) >= MIN_COLD_PASSES:
            break
    while not trace and not problems and len(
            out["setup_s"]) < SETUP_MIN_SAMPLES:
        out["setup_s"].append(probe(workload, seed)[0])
    if record:
        write_reference(workload, seed, first)
    if trace and not problems:
        metrics = import_times(
            probe(workload, seed, ("-X", "importtime"))[1])
        trace_dir = Path(tempfile.mkdtemp(dir=work, prefix="trace-"))
        tracer = tracing.Tracer()
        traced = cold_pass(workload, seed, work, tracer, trace_dir)
        checked, wrong = check_pass(workload, seed, first, traced)
        problems += checked
        spans = tracer.spans + tracing.load_worker_spans(str(trace_dir))
        backends = sorted({s["args"]["backend"] for s in spans
                           if "backend" in s["args"]})
        if backends != [SIM_MODULES[workload.backend]]:
            problems.append(f"traced pass ran on {backends}, not the "
                            f"{workload.backend} backend")
        metrics.update(layer_metrics(workload, traced, spans))
        metrics["runner.warm_s"] = statistics.median(warm_s)
        metrics["trace.wall_s"] = traced.wall_s
        metrics["trace.overhead_s"] = traced.wall_s - first.wall_s
        metrics["trace.spans"] = len(spans)
        out["per_layer"] = metrics
        out["chrome"] = tracing.chrome_trace(spans, {})
        out["attempted"] += traced.attempted
        out["failed"] += len(traced.collector.failures) + len(wrong)
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    logging.getLogger("repro.runner").setLevel(logging.ERROR)
    workload = WORKLOADS[args.workload]
    refusal = check_backend(workload)
    if refusal is not None:
        print(f"perfbench: {refusal}", file=sys.stderr)
        return 2
    if args.phase == "setup":
        result = phase_setup(workload, args.seed)
    else:
        result = phase_measure(workload, args.seed, args.seconds,
                               bool(args.trace), args.work, args.record)
    result["backend"] = kernel.active_backend()
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
