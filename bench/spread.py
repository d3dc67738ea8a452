"""Run the benchmark once per seed and report, per end-to-end metric, the
median and the spread: the distance between the first and third quartile
(statistics.quantiles with n=4) as a share of the median.

    python3 bench/spread.py --workload oracle-long --seeds 1 2 3 4 5 --seconds 30

Prints one JSON object: per end-to-end metric and per named metric of
the results file (the wall-clock figures among them), its values, median
and spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def summarize(values):
    summary = {}
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        summary[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": xs}
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    values, named = {}, {}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
        line = json.loads(done.stdout.strip().splitlines()[-1])
        if not line["correct"]:
            sys.exit(f"seed {seed}: run reported failed checks\n{done.stdout}")
        runs.append({"seed": seed, "attempted": line["attempted"], "failed": line["failed"]})
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        with open(BENCH / "results" / f"{args.workload}-trace0.json", encoding="utf-8") as fh:
            for name, m in json.load(fh)["named"].items():
                named.setdefault(name, []).append(m["value"])
    out = {"workload": args.workload, "seconds": args.seconds, "runs": runs}
    out.update(metrics=summarize(values), named=summarize(named))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
