"""Command-line interface.

::

    repro-sim config [--cores N]             # print the Table II chip
    repro-sim cost [--cores N] [--levels L]  # Table I for that chip
    repro-sim run --workload sctr --lock glock [--cores N] [--scale S]
                  [--backend pure|compiled|auto] [--list-backends]
                  [--sanitize]               # runtime invariant checks
                  [--race-detect]            # lockset/vector-clock races
    repro-sim experiment fig08 [--scale S] [--cores N]
                  [--jobs J] [--cache-dir D] [--no-cache]
    repro-sim campaign expand FILE [--dry-run]   # YAML matrix -> digests
    repro-sim campaign run FILE [--backend B] [--workers H:P,...]
    repro-sim worker [--port P] [--cache-dir D]  # remote execution worker
    repro-sim serve [--port P] [--cache-dir D]   # campaign service daemon
    repro-sim cache stats|verify|gc [--older-than DAYS]
    repro-sim shootout [--cores N] [--iters I] [--jobs J] ...
    repro-sim lint [paths...]                # simulator-aware static lint
    repro-sim modelcheck [--cores N] [--arbitration P] [--max-concurrent K]

``experiment`` and ``shootout`` submit their runs to the experiment
engine (:mod:`repro.runner`): ``--jobs`` fans independent simulations out
over a process pool, and results are cached on disk keyed by their spec
hash, so a repeated invocation re-executes nothing (the trailing
``[engine] ...`` summary line reports ``executed=`` / ``disk_hits=``).

(also runnable as ``python -m repro.cli ...``; the lint alone also as
``python -m repro.lint ...``)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.energy import account_run, ed2p
from repro.machine import Machine
from repro.runner import Engine, MachineSpec, RunSpec, use_engine
from repro.sim.config import CMPConfig
from repro.workloads import WORKLOADS, make_workload

__all__ = ["main", "build_parser", "DEFAULT_CACHE_DIR"]

#: default persistent result cache (override: --cache-dir / REPRO_SIM_CACHE_DIR)
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro-sim")

EXPERIMENTS = {
    "fig01": "repro.experiments.fig01_ideal",
    "fig07": "repro.experiments.fig07_contention",
    "fig08": "repro.experiments.fig08_exectime",
    "fig09": "repro.experiments.fig09_traffic",
    "fig10": "repro.experiments.fig10_ed2p",
    "table1": "repro.experiments.table1_cost",
    "table4": "repro.experiments.table4_speedup",
    "ablate-cs": "repro.experiments.ablate_cs_length",
    "ablate-gline": "repro.experiments.ablate_gline",
    "ablate-arbitration": "repro.experiments.ablate_arbitration",
    "ablate-sharing": "repro.experiments.ablate_sharing",
    "ablate-coherence": "repro.experiments.ablate_coherence",
    "ablate-faults": "repro.experiments.ablate_faults",
    "ablate_faults": "repro.experiments.ablate_faults",  # CI-friendly alias
    "ablate-overload": "repro.experiments.ablate_overload",
    "validate": "repro.experiments.validate",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="GLocks reproduction: cycle-level many-core CMP simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="print the chip configuration")
    p.add_argument("--cores", type=int, default=32)

    p = sub.add_parser("cost", help="Table I GLocks cost model")
    p.add_argument("--cores", type=int, default=49)
    p.add_argument("--levels", type=int, default=2, choices=(2, 3))

    p = sub.add_parser("run", help="run one benchmark once")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="benchmark to run (required unless --list-locks)")
    p.add_argument("--list-locks", action="store_true",
                   help="print the registered lock kinds and exit")
    p.add_argument("--lock", default="mcs",
                   help="lock kind for the highly-contended locks "
                        "(any kind from --list-locks, or a 'cr:<kind>' / "
                        "'cr<k>:<kind>' concurrency-restricted wrapper)")
    p.add_argument("--other-lock", default="tatas")
    p.add_argument("--cores", type=int, default=32)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--sanitize", action="store_true",
                   help="validate runtime invariants every event "
                        "(repro.verify.invariants)")
    p.add_argument("--sanitize-starvation-bound", type=int, default=1_000_000,
                   metavar="CYCLES",
                   help="max cycles a core may wait for a TOKEN under "
                        "--sanitize (default: 1e6)")
    p.add_argument("--profile", action="store_true",
                   help="per-component cycle/event attribution "
                        "(repro.sim.profile); results are unchanged")
    p.add_argument("--race-detect", action="store_true",
                   help="attach the lockset/vector-clock data-race "
                        "detector (repro.verify.races); exits 1 on "
                        "unannotated races, fingerprints are unchanged")
    p.add_argument("--backend", default=None,
                   choices=("pure", "compiled", "auto"),
                   help="simulator kernel backend (default: "
                        "$REPRO_SIM_BACKEND or auto = compiled when "
                        "built, else pure); results are bit-identical "
                        "across backends")
    p.add_argument("--list-backends", action="store_true",
                   help="print the available simulator backends (and "
                        "what 'auto' resolves to here) and exit")

    def add_engine_flags(p):
        from repro.runner.backends import BACKEND_NAMES
        p.add_argument("--jobs", type=int, default=1, metavar="J",
                       help="simulator runs to execute in parallel "
                            "(process pool; default: 1 = in-process)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent result cache location (default: "
                            "$REPRO_SIM_CACHE_DIR or ~/.cache/repro-sim)")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result cache entirely")
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-run wall-clock budget in seconds "
                            "(pool and remote backends)")
        p.add_argument("--retries", type=int, default=0, metavar="N",
                       help="extra attempts per spec after a failure or "
                            "timeout (default: 0)")
        p.add_argument("--backend", default="auto", choices=BACKEND_NAMES,
                       help="execution backend (default: auto = inline "
                            "for --jobs 1, process-pool otherwise)")
        p.add_argument("--workers", default=None, metavar="H:P,H:P",
                       help="comma-separated repro-sim worker addresses "
                            "(required by --backend remote)")
        p.add_argument("--lease-timeout", type=float, default=None,
                       metavar="S",
                       help="remote backend: max silence (no heartbeat, "
                            "no result) before a dispatched spec's lease "
                            "breaks and it is re-dispatched (default: 10)")

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--cores", type=int, default=32)
    p.add_argument("--smoke", action="store_true",
                   help="shrunk CI-sized sweep (experiments that support "
                        "it, e.g. ablate-faults)")
    p.add_argument("--profile", action="store_true",
                   help="per-component cycle/event attribution; forces "
                        "--jobs 1 --no-cache so every run executes "
                        "in-process (spec digests are unaffected)")
    p.add_argument("--race-detect", action="store_true",
                   help="race-check every run in the sweep; forces "
                        "--jobs 1 --no-cache so detectors attach "
                        "in-process (spec digests are unaffected)")
    add_engine_flags(p)
    p.add_argument("--fail-policy", choices=("abort", "collect"),
                   default="abort",
                   help="abort: die on the first exhausted spec (classic); "
                        "collect: run the campaign supervisor, record a "
                        "per-spec outcome, and render the partial sweep")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="checkpoint campaign progress to PATH (JSON, "
                        "atomically rewritten as results land); implies "
                        "the campaign supervisor")
    p.add_argument("--resume", default=None, metavar="MANIFEST",
                   help="resume a previous campaign: done specs are served "
                        "from its result cache, quarantined specs are "
                        "skipped; implies --fail-policy collect and the "
                        "manifest's cache dir unless overridden")
    p.add_argument("--quarantine-threshold", type=int, default=2,
                   metavar="K",
                   help="worker kills before a spec is quarantined "
                        "(default: 2)")

    p = sub.add_parser("shootout", help="compare all lock kinds quickly")
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--iters", type=int, default=160)
    add_engine_flags(p)

    p = sub.add_parser("campaign",
                       help="expand or run a declarative YAML campaign")
    campaign_sub = p.add_subparsers(dest="campaign_cmd", required=True)
    pe = campaign_sub.add_parser(
        "expand", help="validate a campaign file and print its spec "
                       "digests without executing")
    pe.add_argument("file", help="campaign YAML file")
    pe.add_argument("--dry-run", action="store_true",
                    help="accepted for symmetry; expand never executes")
    pr = campaign_sub.add_parser(
        "run", help="execute a campaign file through the engine")
    pr.add_argument("file", help="campaign YAML file")
    add_engine_flags(pr)
    pr.add_argument("--publish", default=None, metavar="PATH",
                    help="stream result records to PATH as they land")
    pr.add_argument("--publish-format", choices=("jsonl", "csv"),
                    default="jsonl")
    pr.add_argument("--fail-policy", choices=("abort", "collect"),
                    default="abort",
                    help="abort: die on the first exhausted spec; collect: "
                         "record per-spec outcomes and keep going")
    pr.add_argument("--manifest", default=None, metavar="PATH",
                    help="checkpoint campaign progress to PATH (implies "
                         "the campaign supervisor)")

    p = sub.add_parser("worker",
                       help="serve remote spec execution for "
                            "--backend remote")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default: 0 = pick a free one)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="shared result cache (default: $REPRO_SIM_CACHE_DIR "
                        "or ~/.cache/repro-sim)")
    p.add_argument("--no-cache", action="store_true",
                   help="execute every request, share nothing")
    p.add_argument("--heartbeat-interval", type=float, default=1.0,
                   metavar="S",
                   help="seconds between heartbeat frames while a spec "
                        "simulates (0 disables; default: 1)")

    p = sub.add_parser("serve",
                       help="campaign service daemon (HTTP submit/status/"
                            "results over one warm cache)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="HTTP port (default: 8642; 0 = pick a free one)")
    p.add_argument("--results-dir", default=None, metavar="DIR",
                   help="published sample files (default: "
                        "<cache-dir>/results)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="write-ahead job journal (default: "
                        "<cache-dir>/service-journal.jsonl; 'off' "
                        "disables journaling)")
    p.add_argument("--resume-journal", action="store_true",
                   help="replay the journal on startup and re-enqueue "
                        "jobs that never finished (landed specs are "
                        "served from the cache, so only the rest "
                        "re-execute)")
    p.add_argument("--max-queue", type=int, default=None, metavar="N",
                   help="bound on queued jobs; a full queue answers "
                        "429 with Retry-After (default: unbounded)")
    add_engine_flags(p)

    p = sub.add_parser("cache", help="inspect or prune the result cache")
    p.add_argument("action", choices=("stats", "verify", "gc"))
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache root (default: $REPRO_SIM_CACHE_DIR or "
                        "~/.cache/repro-sim)")
    p.add_argument("--older-than", type=float, default=None, metavar="DAYS",
                   help="gc: delete entries older than DAYS (required "
                        "for gc)")

    p = sub.add_parser("lint", help="simulator-aware static lint "
                                    "(SIM001-SIM007)")
    p.add_argument("paths", nargs="*", default=["src/"],
                   help="files or directories (default: src/)")

    p = sub.add_parser("modelcheck",
                       help="exhaust the token-protocol state space on a "
                            "small mesh")
    p.add_argument("--cores", type=int, default=4,
                   help="mesh size (default 4 = 2x2)")
    p.add_argument("--levels", type=int, default=2, choices=(2, 3))
    p.add_argument("--arbitration", default="all",
                   choices=("all", "round_robin", "fifo", "static"))
    p.add_argument("--max-concurrent", type=int, default=None,
                   help="bound on simultaneously active cores "
                        "(default: all cores eager — keep to small meshes)")
    p.add_argument("--fairness-bound", type=int, default=None,
                   help="per-manager bounded-bypass check "
                        "(round_robin/fifo only)")

    return parser


def _cmd_config(args) -> int:
    print(CMPConfig.baseline(args.cores).describe())
    return 0


def _cmd_cost(args) -> int:
    from repro.experiments import table1_cost
    from repro.core import cost_model

    cost = cost_model(CMPConfig.baseline(args.cores), levels=args.levels)
    rows = [[label, value] for label, value in cost.rows()]
    print(format_table(["resource / latency", "value"], rows,
                       title=f"Table I ({args.cores} cores, "
                             f"{args.levels}-level network)"))
    return 0


def _cmd_run(args) -> int:
    from repro.sim import kernel

    if args.list_backends:
        auto = kernel.resolve_backend("auto")
        available = kernel.available_backends()
        for name in ("pure", "compiled"):
            if name in available:
                mark = "  <- auto" if name == auto else ""
                print(f"{name}{mark}")
            else:
                print(f"{name}  (not built; python setup.py build_ext "
                      "--inplace)")
        return 0
    if args.backend is not None:
        try:
            kernel.set_backend(args.backend)
        except kernel.BackendUnavailableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.list_locks:
        from repro.locks.registry import LOCK_KINDS

        for kind in LOCK_KINDS:
            print(kind)
        print("cr:<kind> / cr<k>:<kind>  (concurrency-restricted wrapper, "
              "admit <= k; default k=4)")
        return 0
    if args.workload is None:
        print("error: --workload is required (or use --list-locks)")
        return 2
    if args.profile:
        from repro.sim.profile import profiling

        with profiling() as prof:
            code = _run_once(args)
        print()
        print(prof.format_table())
        return code
    return _run_once(args)


def _run_once(args) -> int:
    machine = Machine(CMPConfig.baseline(args.cores))
    if args.sanitize:
        from repro.verify.invariants import attach_sanitizer

        if machine.sanitizer is not None:
            # e.g. pytest --sanitize auto-attached one; ours carries the
            # CLI-configured starvation bound
            machine.sanitizer.detach()
        sanitizer = attach_sanitizer(
            machine, starvation_bound=args.sanitize_starvation_bound)
    detector = None
    if args.race_detect and machine.races is None:
        from repro.verify.races import attach_detector

        detector = attach_detector(machine)
    workload = make_workload(args.workload, scale=args.scale)
    instance = workload.instantiate(machine, hc_kind=args.lock,
                                    other_kind=args.other_lock)
    result = machine.run(instance.programs)
    instance.validate(machine)
    if args.sanitize:
        print(f"sanitizer  : OK ({sanitizer.checks_run} per-event checks, "
              "drain invariants hold)")
    if detector is not None:
        print(detector.format_report())
    energy = account_run(result)
    fractions = result.category_fractions()
    print(f"workload   : {args.workload} (scale {args.scale}) on "
          f"{args.cores} cores, HC locks = {args.lock}")
    print(f"makespan   : {result.makespan} cycles")
    print("breakdown  : " + "  ".join(
        f"{cat}={fractions[cat]:.1%}" for cat in fractions))
    print(f"NoC traffic: {result.total_traffic} switch-bytes "
          f"({result.traffic})")
    print(f"energy     : {energy.total_pj / 1e6:.2f} uJ; "
          f"ED2P = {ed2p(energy, result.makespan):.3e} pJ*cyc^2")
    if detector is not None and detector.races:
        return 1
    return 0


def _resolve_cache_dir(cache_dir: Optional[str],
                       fallback: Optional[str] = None) -> str:
    """The effective cache root for a flag value (env/default fallback)."""
    return os.path.expanduser(cache_dir
                              or fallback
                              or os.environ.get("REPRO_SIM_CACHE_DIR")
                              or DEFAULT_CACHE_DIR)


def _backend_from_args(args):
    """The explicit backend the flags describe (None = classic auto)."""
    from repro.runner.backends import make_backend

    name = getattr(args, "backend", "auto")
    workers = getattr(args, "workers", None)
    if workers:
        workers = [w for w in workers.split(",") if w.strip()]
    if workers and name == "auto":
        name = "remote"  # --workers alone is unambiguous
    return make_backend(name, jobs=args.jobs, workers=workers,
                        lease_timeout=getattr(args, "lease_timeout", None))


def _engine_from_args(args, fallback_cache_dir: Optional[str] = None
                      ) -> Engine:
    """Build the experiment engine the CLI flags describe."""
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = _resolve_cache_dir(args.cache_dir, fallback_cache_dir)
    return Engine(jobs=args.jobs, cache_dir=cache_dir,
                  timeout=getattr(args, "timeout", None),
                  retries=getattr(args, "retries", 0),
                  backend=_backend_from_args(args))


def _campaign_exit_code(outcomes) -> int:
    """0 all ok; 3 when anything was quarantined; 2 on other failures."""
    if any(o.status == "quarantined" for o in outcomes):
        return 3
    if any(not o.ok for o in outcomes):
        return 2
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    from repro.runner import (CampaignInterrupted, RunFailure, Supervisor,
                              use_supervisor)

    if args.profile:
        # profiling lives in this process: cached results would skip the
        # simulation entirely and pool workers would profile into their
        # own (discarded) interpreters, so force inline, uncached runs
        from repro.sim.profile import profiling

        if args.jobs != 1 or not args.no_cache:
            print("profile: forcing --jobs 1 --no-cache (profiled runs "
                  "must execute in-process)")
        args.jobs = 1
        args.no_cache = True
        args.profile = False  # run the plain path below, instrumented
        with profiling() as prof:
            code = _cmd_experiment(args)
        print()
        print(prof.format_table())
        return code

    if args.race_detect:
        # same in-process constraint as --profile: the detector attaches
        # to Machines built in this interpreter, and a cache hit would
        # skip the simulation it needs to observe
        from repro.verify.races import race_detection

        if args.jobs != 1 or not args.no_cache:
            print("race-detect: forcing --jobs 1 --no-cache (detectors "
                  "attach to in-process runs)")
        args.jobs = 1
        args.no_cache = True
        args.race_detect = False  # run the plain path below, instrumented
        with race_detection() as races:
            code = _cmd_experiment(args)
        print()
        print(races.format_report())
        if races.races and code == 0:
            code = 1
        return code

    module = importlib.import_module(EXPERIMENTS[args.name])
    kwargs = {}
    import inspect

    signature = inspect.signature(module.run)
    if "scale" in signature.parameters:
        kwargs["scale"] = args.scale
    if "n_cores" in signature.parameters:
        kwargs["n_cores"] = args.cores
    if "smoke" in signature.parameters:
        kwargs["smoke"] = args.smoke
    elif args.smoke:
        print(f"note: experiment {args.name!r} has no smoke mode; "
              "running the full sweep")

    supervised = (args.fail_policy == "collect" or args.manifest
                  or args.resume)
    fallback_cache_dir = None
    if args.resume:
        # a resumed campaign defaults to the cache its manifest recorded,
        # so "done" specs are found instead of re-simulated
        from repro.runner import CampaignManifest
        try:
            fallback_cache_dir = (CampaignManifest.load(args.resume)
                                  .data.get("campaign", {}).get("cache_dir"))
        except (OSError, ValueError) as exc:
            print(f"error: cannot resume from {args.resume}: {exc}")
            return 2
    try:
        engine = _engine_from_args(args, fallback_cache_dir)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    try:
        if supervised:
            fail_policy = "collect" if args.resume else args.fail_policy
            supervisor = Supervisor(
                engine, fail_policy=fail_policy,
                quarantine_threshold=args.quarantine_threshold,
                manifest_path=args.manifest, resume_from=args.resume)
            with use_engine(engine), use_supervisor(supervisor):
                print(module.render(module.run(**kwargs)))
            print(engine.summary())
            print(supervisor.summary())
            bad = [o for o in supervisor.outcomes if not o.ok]
            for outcome in bad:
                print(f"FAILED {outcome.describe()}")
            return _campaign_exit_code(supervisor.outcomes)
        with use_engine(engine):
            print(module.render(module.run(**kwargs)))
        print(engine.summary())
        return 0
    except RunFailure as failure:
        print(engine.summary())
        print(f"FAILED {failure.spec.digest()[:12]} "
              f"{failure.spec.describe()}: {failure.cause!r}")
        return 2
    except CampaignInterrupted as interrupt:
        print(engine.summary())
        print(f"INTERRUPTED {interrupt} — resume with "
              f"--resume {interrupt.manifest_path}")
        return 130


def _cmd_shootout(args) -> int:
    from repro.locks import LOCK_KINDS

    per_thread = max(args.iters // args.cores, 1)
    n_cs = per_thread * args.cores
    specs = [
        RunSpec(workload="synth", hc_kind=kind,
                machine=MachineSpec.baseline(args.cores),
                workload_params={"iterations_per_thread": per_thread})
        for kind in LOCK_KINDS
    ]
    engine = _engine_from_args(args)
    with use_engine(engine):
        runs = engine.run_specs(specs)
    rows = [[kind, bench.makespan / n_cs, bench.total_traffic / n_cs]
            for kind, bench in zip(LOCK_KINDS, runs)]
    print(format_table(
        ["lock", "cycles/CS", "switch-bytes/CS"], rows,
        title=f"Lock shootout ({args.cores} cores)"))
    print(engine.summary())
    return 0


_ENGINE_FLAG_DEFAULTS = {"jobs": 1, "timeout": None, "retries": 0,
                         "backend": "auto", "workers": None,
                         "cache_dir": None, "lease_timeout": None}


def _apply_campaign_engine(args, settings) -> None:
    """Fill engine flags from the campaign's ``engine:`` section.

    CLI flags win: a file value only applies where the flag still holds
    its parser default.
    """
    for key, value in settings.items():
        arg_key = key
        if key == "workers" and isinstance(value, list):
            value = ",".join(str(w) for w in value)
        if (arg_key in _ENGINE_FLAG_DEFAULTS
                and getattr(args, arg_key) == _ENGINE_FLAG_DEFAULTS[arg_key]):
            setattr(args, arg_key, value)


def _cmd_campaign(args) -> int:
    from repro.runner import CampaignInterrupted, RunFailure, Supervisor
    from repro.runner import use_engine, use_supervisor
    from repro.runner.config import ConfigError, load_campaign
    from repro.runner.publisher import SamplePublisher

    try:
        campaign = load_campaign(args.file)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2

    if args.campaign_cmd == "expand":
        print(f"campaign {campaign.name}: {len(campaign.specs)} specs")
        for spec in campaign.specs:
            print(f"{spec.digest()}  {spec.describe()}")
        return 0

    _apply_campaign_engine(args, campaign.engine)
    try:
        engine = _engine_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    publisher = None
    if args.publish:
        publisher = SamplePublisher(args.publish, fmt=args.publish_format)
        publisher.expect(campaign.digests())
        engine.observers.append(publisher)
    supervised = args.fail_policy == "collect" or args.manifest
    try:
        try:
            if supervised:
                supervisor = Supervisor(engine, fail_policy=args.fail_policy,
                                        manifest_path=args.manifest)
                with use_engine(engine), use_supervisor(supervisor):
                    supervisor.run_campaign(campaign.specs)
                print(engine.summary())
                print(supervisor.summary())
                for outcome in (o for o in supervisor.outcomes if not o.ok):
                    print(f"FAILED {outcome.describe()}")
                return _campaign_exit_code(supervisor.outcomes)
            with use_engine(engine):
                engine.run_specs(campaign.specs)
            print(engine.summary())
            return 0
        except RunFailure as failure:
            print(engine.summary())
            print(f"FAILED {failure.spec.digest()[:12]} "
                  f"{failure.spec.describe()}: {failure.cause!r}")
            return 2
        except CampaignInterrupted as interrupt:
            print(engine.summary())
            print(f"INTERRUPTED {interrupt}")
            return 130
    finally:
        if publisher is not None:
            publisher.close()
            print(f"published {publisher.published} records to "
                  f"{publisher.path}")
        engine.close()


def _cmd_worker(args) -> int:
    import signal

    from repro.runner.remote import WorkerServer

    cache_dir = (None if args.no_cache
                 else _resolve_cache_dir(args.cache_dir))
    server = WorkerServer(host=args.host, port=args.port,
                          cache_dir=cache_dir,
                          heartbeat_interval=args.heartbeat_interval)

    def stop(signum, frame):
        # drain: refuse new specs, let the in-flight one finish and
        # commit to the shared cache, then exit 0
        server.begin_drain()

    # handlers go in before the ready line: a supervisor that reacts to
    # the printed address must never catch us with default dispositions
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    host, port = server.address
    print(f"worker listening on {host}:{port} "
          f"(cache: {cache_dir or 'off'})", flush=True)
    server.serve_forever()
    print("worker draining: waiting for the in-flight spec...", flush=True)
    server.wait_drained()
    print("worker drained cleanly", flush=True)
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.runner.service import CampaignService

    try:
        engine = _engine_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    results_dir = args.results_dir or os.path.join(
        _resolve_cache_dir(args.cache_dir), "results")
    if args.journal == "off":
        journal_path = None
    else:
        journal_path = args.journal or os.path.join(
            _resolve_cache_dir(args.cache_dir), "service-journal.jsonl")
    if args.resume_journal and journal_path is None:
        print("error: --resume-journal needs a journal (drop --journal off)")
        return 2
    service = CampaignService(engine, results_dir=results_dir,
                              host=args.host, port=args.port,
                              journal_path=journal_path,
                              max_queue=args.max_queue)
    if args.resume_journal:
        recovered = service.resume_journal()
        if recovered:
            print(f"resumed {len(recovered)} unfinished job(s) from "
                  f"{journal_path}: "
                  f"{', '.join(j.id for j in recovered)}", flush=True)
    def stop(signum, frame):
        # drain: stop admitting (503), finish the running job, leave
        # queued jobs journaled for --resume-journal, exit 0
        threading.Thread(target=service.drain, daemon=True).start()

    # handlers go in before the ready line (see _cmd_worker)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    host, port = service.address
    print(f"campaign service listening on http://{host}:{port} "
          f"(backend: {engine.backend_name}, cache: "
          f"{engine.cache.root if engine.cache else 'off'}, "
          f"results: {results_dir}, journal: {journal_path or 'off'})",
          flush=True)
    try:
        service.serve_forever()
    finally:
        engine.close()
    print("campaign service drained cleanly", flush=True)
    return 0


def _cmd_cache(args) -> int:
    from repro.runner.cache import ResultCache

    cache = ResultCache(_resolve_cache_dir(args.cache_dir))
    if args.action == "stats":
        print(cache.stats().describe(cache.root))
        return 0
    if args.action == "verify":
        ok, corrupt = cache.verify()
        print(f"verified {ok} entries under {cache.root}")
        for message in corrupt:
            print(f"CORRUPT {message}")
        if corrupt:
            print(f"{len(corrupt)} corrupt entries deleted (they will "
                  f"re-execute on next use)")
            return 1
        return 0
    # gc
    if args.older_than is None:
        print("error: cache gc needs --older-than DAYS")
        return 2
    try:
        removed, tmp_removed = cache.gc(args.older_than)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(f"removed {removed} entries and {tmp_removed} stale temp files "
          f"older than {args.older_than:g} days from {cache.root}")
    return 0


def _cmd_lint(args) -> int:
    from repro.verify.lint import main as lint_main

    return lint_main(args.paths)


def _cmd_modelcheck(args) -> int:
    from repro.verify.modelcheck import check_protocol

    policies = (("round_robin", "fifo", "static")
                if args.arbitration == "all" else (args.arbitration,))
    for policy in policies:
        fairness = args.fairness_bound if policy != "static" else None
        result = check_protocol(
            args.cores, args.levels, policy,
            max_concurrent=args.max_concurrent,
            fairness_bound=fairness)
        print(result.describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.sim import kernel

    args = build_parser().parse_args(argv)
    try:
        # resolves $REPRO_SIM_BACKEND: a bad value gets the one-line
        # error (and exit 2) an unusable --backend gets
        kernel.active_backend()
    except (ValueError, kernel.BackendUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = {
        "config": _cmd_config,
        "cost": _cmd_cost,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "campaign": _cmd_campaign,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "cache": _cmd_cache,
        "shootout": _cmd_shootout,
        "lint": _cmd_lint,
        "modelcheck": _cmd_modelcheck,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
