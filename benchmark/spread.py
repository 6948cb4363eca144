#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on one
workload and prints, per end-to-end metric, the median, the quartile
spread (Q3 - Q1) / median as `statistics.quantiles(values, n=4)` gives
it, and that spread as a share of the metric's bound.

    python3 benchmark/spread.py serve_burst 1 2 3 4 5

Run it from the repository root.
"""

import json
import statistics
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    workload, seeds = sys.argv[1], sys.argv[2:]
    bench = json.load(open("BENCHMARK.json"))
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload,
            "--seed", seed,
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}{out.stdout}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        host = json.loads(out.stdout.splitlines()[0])["host"]
        print(
            f"seed {seed}: attempted {result['attempted']}"
            f" calibration_ns {host['calibration_ns']:.0f} "
            + " ".join(f"{n}={values[n][-1]:.6g}" for n in values),
            flush=True,
        )
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(
            f"{m['name']:<28} median {med:<14.6g} spread {spread:6.3f}"
            f"  ({spread / m['bound']:5.2f} of bound {m['bound']})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
