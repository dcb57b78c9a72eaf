"""Run the benchmark over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workloads queries verify --seeds 1-10 --seconds 42

Each run is one `run.py` process, started one after another. The spread is
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(results):
    """{metric: (median, q1, q3, spread)} over a list of result objects."""
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        table[name] = (med, q1, q3, (q3 - q1) / med if med else 0.0)
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["queries", "verify"])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=42)
    args = parser.parse_args()
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            results.append(result)
        ok = all(r["correct"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, correct={ok}, failed shares={shares}")
        for name, (med, q1, q3, spread) in summarize(results).items():
            print(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
