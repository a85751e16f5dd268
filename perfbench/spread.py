"""Run the benchmark on several seeds and report how much each metric spreads.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload small-many --seeds 1-10
    python3 perfbench/spread.py --workload small-many --seeds 1,2 --trace 1

With --trace 0 it prints, per end-to-end metric, the median and the
interquartile range as a share of the median (statistics.quantiles, n=4)
next to a third of the metric's bound in BENCHMARK.json.  With --trace 1 it
checks that every count metric is identical across the seeds.  Either way
it checks that every run was correct with no failed task and the same
number of tasks per round.  Exit code 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    tasks = re.search(r"(\d+) tasks per round", proc.stdout)
    return json.loads(lines[-1]), int(tasks.group(1)), proc.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    ok = True
    results, task_counts = [], set()
    for seed in args.seeds:
        res, tasks, stdout = run(args.workload, seed, seconds, args.trace)
        results.append(res)
        task_counts.add(tasks)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                          if args.trace == 0)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {values}", flush=True)
        if not res["correct"] or res["failed"]:
            ok = False
            print(stdout)
    if len(task_counts) != 1:
        ok = False
        print(f"task counts differ across seeds: {sorted(task_counts)}")

    if args.trace:
        for metric in spec["per_layer"]:
            name = metric["name"]
            if metric["unit"] != "count":
                continue
            values = {r["metrics"][name]["value"] for r in results}
            if len(values) != 1:
                ok = False
                print(f"{name}: differs across seeds: {sorted(values)}")
        if ok:
            print("count metrics identical across seeds")
    else:
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            print(f"{metric['name']:14s} median {med:12.6g} {metric['unit']:3s} "
                  f"spread {share:7.2%}  bound/3 {metric['bound'] / 3:7.2%}"
                  f"{'' if share < metric['bound'] / 3 else '  WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
