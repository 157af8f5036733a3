"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 bench/spread.py [--workloads a,b] [--seeds 1,2,...] [--out FILE]

Runs `bench/run.py --trace 0` once per workload and seed, one run at a time,
for BENCHMARK.json's `run_seconds`.  For each end-to-end metric it prints the
median of the runs and the spread, the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median, next
to the metric's bound.  `--out` writes the medians, spreads and every run's
result as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: not correct: {result}")
            runs.append({"env": env, **result})
        metrics = {}
        print(f"{workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            sp = spread(values)
            metrics[name] = {"median": statistics.median(values), "spread": sp,
                             "bound": bound, "values": values}
            flag = "" if sp < bound / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {statistics.median(values):12.6g}  "
                  f"spread {sp:7.4f}  bound {bound}{flag}")
        summary[workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
