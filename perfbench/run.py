"""rooklab benchmark: one workload, one seed, end-to-end or traced metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-many --seed 1 --seconds 30 --trace 0

Prints a run header (lines starting with "#") and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones (BENCHMARK.json "end_to_end"); with
--trace 1 they are the per-layer ones ("per_layer").  The exit code is 0
when a result was printed, 2 when the checkout holds no rooklab sources.

The workload runs in a fresh child process with BLAS pinned to one thread.
setup_s is the median over SETUP_PROBES + 1 fresh processes of the CPU time
from process start to the moment the first task could run, scaled to a
fixed host speed as worker.py describes.  See README.md
for the workloads, the metrics and what is deliberately not measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10
DEADLINE_S = 170
PINNED_THREADS = "1"


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = PINNED_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha():
    """HEAD of the checkout read from .git, or "unknown" without one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_worker(args, extra, deadline):
    """Start a worker and wait for its "ready" line; returns (process,
    CPU seconds the worker spent from its start to ready, the same scaled
    to the probe's host speed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    word, *ready = proc.stdout.readline().split()
    if word != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, tuple(map(float, ready))


def finish(proc, deadline):
    """Wait for the worker, killing it at the deadline; returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker overran the deadline and was killed")
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rooklab" / "__init__.py").is_file():
        print(f"no rooklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = start_worker(args, ["--probe"], deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            print(f"setup probe exited {proc.returncode}", file=sys.stderr)
            return 2
        setups.append(ready)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        extra += ["--spans-out", str(spans)]
    proc, ready = start_worker(args, extra, deadline)
    setups.append(ready)
    out = finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return 2
    res = json.loads(out.strip().splitlines()[-1])

    print(f"# rooklab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# git {git_sha()}  python {res['python']}  numpy {res['numpy']}")
    print(f"# blas {res['blas']}  threads pinned to {res['blas_threads']}  "
          f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})")
    print(f"# closed loop, 1 caller: {res['tasks']} tasks per round, "
          f"{res['rounds']} of {res['planned_rounds']} planned rounds, "
          f"{res['untraced_rounds']} untraced")
    print(f"# latency samples: {res['tasks']} tasks, each the median of its "
          f"{res['untraced_rounds']} untraced executions; "
          f"tail percentile p{res['tail_percentile']}")
    print(f"# round CPU s, unscaled: "
          f"{', '.join(f'{t:.4f}' for t in res['round_cpu_s'])}")
    print(f"# round s, scaled: {', '.join(f'{t:.4f}' for t in res['round_s'])}")
    print(f"# setup CPU s, unscaled: {', '.join(f'{t:.4f}' for t, _ in setups)}")
    print(f"# fail_frac {res['fail_frac']} ({res['failed']} of "
          f"{res['attempted']})  self-tests {json.dumps(res['selftest'])}")
    for err in res["errors"]:
        print(f"# FAILED {err}")

    if args.trace:
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        values = dict(res["end_to_end"],
                      setup_s=statistics.median(t for _, t in setups))
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = res["failed"] == 0 and all(res["selftest"].values())
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
