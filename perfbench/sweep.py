"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --workloads deep_reduce,oracle_wide --seeds 1-10

Run from the repository root.  Runs go one at a time, each for the
``run_seconds`` in BENCHMARK.json.  For every end-to-end metric the summary
gives the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median, beside the metric's bound; it is printed and
written to ``perfbench/out/SWEEP_<workloads>.json``.  Comparing two commits
means running this on each with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list] = {name: [] for name in bounds}
        incorrect = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            incorrect += not result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        metrics = {}
        print(f"{workload}: seeds {args.seeds[0]}..{args.seeds[-1]}, {incorrect} incorrect runs")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vals}
            print(f"  {name:16s} median {median:12.5g}  spread {spread:.3f}"
                  f"  bound {bounds[name]:.2f}")
        summary[workload] = {"seeds": args.seeds, "incorrect_runs": incorrect, "metrics": metrics}

    out = HERE / "out" / f"SWEEP_{args.workloads.replace(',', '+')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
