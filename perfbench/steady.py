"""Steadiness check: repeat the benchmark over seeds and report spreads.

    python3 perfbench/steady.py [--runs 10] [--workload W]...

Runs `BENCHMARK.json`'s command once per seed 1..runs and workload, one
run at a time, and prints for each end-to-end metric the median and
the distance between the first and third quartiles as a share of the
median, next to the metric's bound.  Every run's JSON is kept in
perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all)")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = []
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit("%s seed %d exited with %d"
                                 % (name, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(workload=name, seed=seed, wall_s=took)
            runs.append(result)
            records.append(result)
            print("%s seed=%d correct=%s attempted=%d failed=%d wall=%.1fs %s"
                  % (name, seed, result["correct"], result["attempted"],
                     result["failed"], took,
                     " ".join("%s=%.6g" % (k, v["value"])
                              for k, v in result["metrics"].items())),
                  flush=True)
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print("  %-12s %-11s median %-12.6g spread %6.2f%%  bound %g%%"
                  % (name, metric, med, 100 * (q3 - q1) / med,
                     100 * bounds.get(metric, float("nan"))), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("  %-12s failed share %s" % (name, sorted(shares)), flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "steady-%d.json" % int(time.time()))
    with open(path, "w") as handle:
        json.dump(records, handle, indent=1)
    print("runs written to %s" % path)


if __name__ == "__main__":
    main()
