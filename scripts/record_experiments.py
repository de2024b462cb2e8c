"""Run every experiment at full paper scale and print a results digest.

Used to produce the paper-vs-measured tables in EXPERIMENTS.md::

    python scripts/record_experiments.py [--scale 1.0] [--cores 32]

Takes on the order of tens of minutes at full scale (the TATAS post-mortem
runs of Figures 1 and 7 simulate thundering herds cycle by cycle).
"""

import argparse
import json
import os
import sys
import time

from repro.cli import DEFAULT_CACHE_DIR
from repro.experiments import (
    fig01_ideal, fig07_contention, fig08_exectime, fig09_traffic,
    fig10_ed2p, table1_cost, table4_speedup,
)
from repro.runner import Engine, use_engine


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cores", type=int, default=32)
    parser.add_argument("--json", type=str, default="",
                        help="also dump a machine-readable digest here")
    parser.add_argument("--csv-dir", type=str, default="",
                        help="also export per-figure CSV files here")
    parser.add_argument("--jobs", type=int, default=1,
                        help="simulator runs to execute in parallel")
    parser.add_argument("--cache-dir", type=str, default="",
                        help="persistent result cache (default: "
                             "$REPRO_SIM_CACHE_DIR or ~/.cache/repro-sim)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache entirely")
    args = parser.parse_args()
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = os.path.expanduser(
            args.cache_dir or os.environ.get("REPRO_SIM_CACHE_DIR")
            or DEFAULT_CACHE_DIR)
    engine = Engine(jobs=args.jobs, cache_dir=cache_dir)
    digest = {}

    def stage(name, fn, render):
        t0 = time.time()
        print(f"=== {name} ===", flush=True)
        with use_engine(engine):
            results = fn()
        print(render(results))
        print(f"[{name}: {time.time() - t0:.0f}s]\n", flush=True)
        # the harnesses list specs a collect-mode campaign skipped under
        # a "skipped" key; it is not a data row
        return {k: v for k, v in results.items() if k != "skipped"}

    r1 = stage("Table I", lambda: table1_cost.run(49), table1_cost.render)
    digest["table1"] = {"measured": r1["measured"]}

    r7 = stage("Figure 7",
               lambda: fig07_contention.run(scale=args.scale, n_cores=args.cores),
               fig07_contention.render)
    digest["fig7"] = {
        name: {label: p.aggregate_rate(21) for label, p in profiles.items()}
        for name, profiles in r7.items()
    }

    r8 = stage("Figure 8",
               lambda: fig08_exectime.run(scale=args.scale, n_cores=args.cores),
               fig08_exectime.render)
    digest["fig8"] = {"ratios": r8["ratios"], "averages": r8["averages"]}

    r9 = stage("Figure 9",
               lambda: fig09_traffic.run(scale=args.scale, n_cores=args.cores),
               fig09_traffic.render)
    digest["fig9"] = {"ratios": r9["ratios"], "averages": r9["averages"]}

    r10 = stage("Figure 10",
                lambda: fig10_ed2p.run(scale=args.scale, n_cores=args.cores),
                fig10_ed2p.render)
    digest["fig10"] = {
        "ratios": {k: v["GL"] for k, v in r10["bars"].items()},
        "averages": r10["averages"],
    }

    r4 = stage("Table IV",
               lambda: table4_speedup.run(scale=args.scale),
               table4_speedup.render)
    digest["table4"] = {f"{n}/{l}": sp for (n, l), sp in r4.items()}

    r01 = stage("Figure 1",
                lambda: fig01_ideal.run(scale=args.scale, n_cores=args.cores),
                fig01_ideal.render)
    digest["fig1"] = {cfg: v["normalized_time"] for cfg, v in r01.items()}

    if args.csv_dir:
        from repro.analysis.export import export_bars, export_series

        export_bars(f"{args.csv_dir}/fig08_time.csv", r8["bars"])
        export_bars(f"{args.csv_dir}/fig09_traffic.csv", r9["bars"])
        export_series(f"{args.csv_dir}/fig10_ed2p.csv",
                      {k: v["GL"] for k, v in r10["bars"].items()},
                      key_name="benchmark", value_name="gl_ed2p_ratio")
        export_series(f"{args.csv_dir}/fig01_ideal.csv",
                      {cfg: v["normalized_time"] for cfg, v in r01.items()},
                      key_name="config", value_name="normalized_time")
        print(f"CSV files written to {args.csv_dir}/")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(digest, fh, indent=2, default=float)
        print(f"digest written to {args.json}")
        # paper-vs-measured validation over the digest we just wrote
        from repro.experiments import validate

        print()
        print(validate.render(validate.run(args.json)))
    print(engine.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
