#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 10 --trace 0

Every invocation

1. builds the C kernel (``src/repro/sim/_ckernel.c``) from this checkout
   with ``setup.py build_ext --inplace --force``, so a stale extension
   from another commit is never measured, and refuses compiled
   workloads if the build fell back to pure Python;
2. runs ``perfbench.measure`` in its own process group: cold passes,
   fresh-interpreter setup probes and warm passes from the cache, in
   turn for ``--seconds``, checking every pass against the committed
   references (``--trace 0``); or one untraced and one traced pass for
   the per-layer metrics (``--trace 1``);
3. prints one PerfKitBenchmarker-style sample per metric (metric,
   value, unit, metadata) and, as the last line, the result object
   ``{"correct", "attempted", "failed", "metrics"}``.

The exit code is 0 when every check passed, 1 when a check failed and
2 when the benchmark could not run (no source tree, build failure,
wrong backend, timeout).  Metric names and units come from
``BENCHMARK.json``.  Build products, caches, samples and Chrome traces
go to ``.bench_build/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
CKERNEL = ROOT / "src" / "repro" / "sim" / (
    "_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))

#: simulator backend each workload measures (measure.py re-checks it)
BACKENDS = {"paper": "compiled", "serving": "compiled",
            "sweep": "compiled", "table3-pure": "pure"}
#: every invocation must finish within this many seconds
DEADLINE_S = 175.0


class BenchError(RuntimeError):
    """The benchmark cannot run here; exit 2 without a result."""


def build_ckernel() -> None:
    """Compile the C kernel from this checkout, or raise BenchError."""
    if not (ROOT / "setup.py").exists():
        raise BenchError(f"no setup.py under {ROOT}: not a source checkout")
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force",
         "--build-temp", str(WORK / "ckernel-tmp"),
         "--build-lib", str(WORK / "ckernel-lib")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    log = proc.stdout + proc.stderr
    if (proc.returncode != 0 or "not built" in log or not CKERNEL.exists()
            or CKERNEL.stat().st_mtime < started - 1):
        raise BenchError("C kernel build failed or fell back to pure "
                         "Python; refusing to measure:\n" + log[-2000:])


def child_env(backend: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_SIM_DISABLE_CEXT", None)
    env["REPRO_SIM_BACKEND"] = backend
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: List[str], env: Dict[str, str], timeout: float) -> None:
    """Run ``perfbench.measure`` in its own process group.

    The whole group is killed when the call returns or times out, so no
    pool worker or setup probe outlives it.
    """
    cmd = [sys.executable, "-m", "perfbench.measure", *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        _out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f}s: {' '.join(args)}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n"
                         f"{err[-3000:]}")


def provenance(backend: str) -> Dict[str, object]:
    """Where and what was measured, stamped on every sample."""
    sha = None
    if (ROOT / ".git").exists():  # a plain checkout has no history
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        cc = subprocess.run([sysconfig.get_config_var("CC").split()[0],
                             "--version"], capture_output=True, text=True,
                            timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, AttributeError):
        cc = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"backend": backend, "git_sha": sha,
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "compiler": cc,
            "cpu_model": cpu, "nproc": os.cpu_count()}


def load_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(end_to_end, per_layer) metric name -> unit from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end_metrics(measured: Dict) -> Dict[str, float]:
    """The untraced run's metrics from measure.py's output.

    A run stopped by a failed check may lack samples; those metrics are
    left out.
    """
    attempted, failed = measured["attempted"], measured["failed"]
    metrics = {
        "peak_rss_mb": measured["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }
    for name in ("wall_s", "setup_s"):
        if measured[name]:
            metrics[name] = statistics.median(measured[name])
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=sorted(BACKENDS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="cold-pass measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite the workload's reference "
                             "fingerprints from this run")
    args = parser.parse_args(argv)
    invoked = time.perf_counter()
    # a terminated benchmark still kills its measuring process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _run(args, invoked)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _run(args, invoked: float) -> int:
    end_to_end, per_layer = load_metrics()
    build_ckernel()
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    out_path = run_dir / "measure.json"
    try:
        run_child(["--phase", "measure", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--work", str(run_dir),
                   "--out", str(out_path)]
                  + (["--record"] if args.record_references else []),
                  child_env(BACKENDS[args.workload]),
                  DEADLINE_S - (time.perf_counter() - invoked))
        with open(out_path, encoding="utf-8") as fh:
            measured = json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = list(measured["problems"])
    stamp = provenance(measured["backend"])
    stamp.update(workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace)
    attempted, failed = measured["attempted"], measured["failed"]
    if args.trace:
        metrics = measured.get("per_layer", {})
        wanted = per_layer
        if "chrome" in measured:
            measured["chrome"]["otherData"] = stamp
            with open(WORK / f"trace-{args.workload}-seed{args.seed}.json",
                      "w", encoding="utf-8") as fh:
                json.dump(measured["chrome"], fh)
    else:
        metrics = end_to_end_metrics(measured)
        wanted = end_to_end
    missing = sorted(set(wanted) - set(metrics))
    if missing and not problems:
        problems.append(f"metrics not measured: {', '.join(missing)}")

    samples = [{"metric": name, "value": metrics[name], "unit": unit,
                "metadata": stamp} for name, unit in wanted.items()
               if name in metrics]
    samples.append({"metric": "end_to_end_runtime",
                    "value": time.perf_counter() - invoked, "unit": "s",
                    "metadata": stamp})
    with open(WORK / f"samples-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(samples, fh, indent=1)
    for sample in samples:
        print(json.dumps({k: sample[k] for k in ("metric", "value", "unit")}))
    print(json.dumps({"provenance": stamp}))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items() if name in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
