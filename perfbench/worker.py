"""One workload in one fresh process: set up, run rounds, check, report.

Started by run.py with BLAS threads pinned in the environment.  Prints
"ready <cpu seconds> <scaled seconds>" once imports and seeded input
generation are done, right before the first task, then (unless --probe) one
JSON line with the measurements.

A round runs the workload's task list once, one task at a time (a closed
loop with a single caller).  A run makes a fixed number of rounds, set by
--seconds and the workload's nominal round time, never by how fast the
rounds go.  With --trace 1, untraced and traced rounds alternate; traced
rounds record spans.  Results are checked against the oracles after the
timed rounds.

Times are CPU time of this process (time.process_time), which leaves out the
time the process waits while other processes run on its CPU.  The host's
speed still drifts, by up to 2x within minutes on a shared VM, so every time
is also rescaled to a host of fixed speed: a short fixed piece of work,
speed_probe, runs between every two tasks, and a task's time is multiplied
by PROBE_SECONDS over the mean CPU time of the probes right before and right
after it.  No code under test runs in the probe.  run.py prints the
unscaled times in its header.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
# The rounds stop early, with a note in the result, once the next one would
# end after this many seconds, so that very slow code still reports in time.
BUDGET_S = 140
# Tail percentiles tried, highest first: the tail is the highest one with at
# least ten task latencies beyond it.
TAIL_LADDER = (99, 95, 90, 75, 50)
# CPU seconds of one speed_probe call on the host the times are scaled to
# (about its median on a 2-vCPU x86-64 VM).
PROBE_SECONDS = 1.5e-3
SETUP_PROBE_CALLS = 40

_MASK = (1 << 64) - 1
_PROBE_MATRIX = None


def speed_probe():
    """Fixed work, half interpreted integer arithmetic and half single-thread
    BLAS, like the workloads; it calls no rooklab code."""
    global _PROBE_MATRIX
    import numpy as np
    if _PROBE_MATRIX is None:
        _PROBE_MATRIX = np.random.default_rng(0).random((64, 64))
    x, total = 0x9E3779B97F4A7C15, 0
    for i in range(1500):
        x = (x * 6364136223846793005 + i) & _MASK
        total += (x >> 7).bit_count()
    b = _PROBE_MATRIX
    for _ in range(6):
        b = np.fmod(b @ _PROBE_MATRIX, 7.0)
    return total, b


def probe_seconds(calls=1):
    """Mean CPU time of `calls` speed_probe calls."""
    clock = time.process_time
    t0 = clock()
    for _ in range(calls):
        speed_probe()
    return (clock() - t0) / calls


def tail_percentile(samples):
    for q in TAIL_LADDER:
        if samples * (100 - q) >= 1000:
            return q
    return None


def percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def planned_rounds(round_seconds, seconds, traced):
    """(untraced, traced) rounds of a run of about `seconds` seconds, for a
    workload whose untraced round takes about `round_seconds`."""
    rounds = max(MIN_ROUNDS, round(seconds / round_seconds))
    if not traced:
        return rounds, 0
    pairs = max(MIN_TRACED_PAIRS, round(rounds / 2))
    return pairs, pairs


def wrong(value):
    """A deliberately wrong expected value of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple) and value:
        return (wrong(value[0]),) + value[1:]
    if isinstance(value, set):
        return {wrong(x) for x in value} | {("wrong",)}
    return ("wrong", value)


def run_round(tasks, tracer):
    """Run every task once, with a speed_probe call before the first and
    after each; returns (unscaled latencies, scaled latencies, results)."""
    clock = time.process_time
    latencies, scaled, results = [], [], []
    before = probe_seconds()
    for idx, task in enumerate(tasks):
        if tracer:
            tracer.task = idx
        t0 = clock()
        try:
            result = task.run()
        except Exception as exc:  # a task that raises counts as failed
            result = exc
        latency = clock() - t0
        after = probe_seconds()
        latencies.append(latency)
        scaled.append(latency * 2 * PROBE_SECONDS / (before + after))
        results.append(result)
        before = after
    return latencies, scaled, results


class Raised(str):
    """Digest or facts of a task whose call or check raised."""


def digests(tasks, results):
    out = []
    for task, result in zip(tasks, results):
        if isinstance(result, Exception):
            out.append(Raised(repr(result)))
            continue
        try:
            out.append(task.digest(result))
        except Exception as exc:
            out.append(Raised(f"digest: {exc!r}"))
    return out


class Oracle:
    """Checks digests against the tasks' expectations, memoising facts and
    expected values so that repeated rounds cost one comparison each."""

    def __init__(self, tasks):
        self.tasks = tasks
        self._facts = {}
        self._expected = {}
        self.errors = []

    def expected(self, idx):
        if idx not in self._expected:
            self._expected[idx] = self.tasks[idx].expected()
        return self._expected[idx]

    def facts(self, idx, digest):
        key = (idx, digest)
        if key not in self._facts:
            if isinstance(digest, Raised):
                self._facts[key] = digest
            else:
                try:
                    self._facts[key] = self.tasks[idx].facts(digest)
                except Exception as exc:
                    self._facts[key] = Raised(f"facts: {exc!r}")
        return self._facts[key]

    def tally(self, round_digests, expect, record=False):
        """Number of failed tasks when task idx must show expect(idx)."""
        failed = 0
        for idx, digest in enumerate(round_digests):
            if self.facts(idx, digest) != expect(idx):
                failed += 1
                if record and len(self.errors) < 5:
                    self.errors.append(f"{self.tasks[idx].name}: got "
                                       f"{str(self.facts(idx, digest))[:300]}")
        return failed


def blas_info():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # older numpy has no dict mode
        return f"unknown ({exc.__class__.__name__})"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="exit once set up (measures set-up time only)")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import rooklab
    if Path(rooklab.__file__).resolve().parent != ROOT / "src" / "rooklab":
        print(f"rooklab imported from {rooklab.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer, round_metrics

    tasks = workloads.build(args.workload, args.seed)
    setup = time.process_time()
    speed_probe()  # builds the probe's matrix outside the measurement
    setup_scaled = setup * PROBE_SECONDS / probe_seconds(SETUP_PROBE_CALLS)
    print(f"ready {setup:.9f} {setup_scaled:.9f}", flush=True)
    if args.probe:
        return 0

    tracer = Tracer() if args.trace else None
    untraced_left, traced_left = planned_rounds(
        workloads.ROUND_SECONDS[args.workload], args.seconds, args.trace)
    planned = untraced_left + traced_left
    rounds = []  # (traced, unscaled latencies, scaled latencies, digests)
    restore_left = []
    traced_spans = []
    start = time.perf_counter()
    while untraced_left or traced_left:
        # Collect, then exempt what earlier rounds left (digests, spans)
        # from later collections, so every round starts from the same heap.
        gc.collect()
        gc.freeze()
        traced = bool(traced_left) and (len(rounds) % 2 == 1 or not untraced_left)
        round_start = time.perf_counter()
        if traced:
            traced_left -= 1
            tracer.spans.clear()
            tracer.install()
            try:
                lat, scaled, results = run_round(tasks, tracer)
            finally:
                restore_left += tracer.restore()
            traced_spans.append(list(tracer.spans))
        else:
            untraced_left -= 1
            lat, scaled, results = run_round(tasks, None)
        rounds.append((traced, lat, scaled, digests(tasks, results)))
        del results
        took = time.perf_counter() - round_start
        measured = any(not r[0] for r in rounds) and (traced_spans or not tracer)
        if measured and time.perf_counter() + took > start + BUDGET_S:
            break  # reported as fewer rounds than planned
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracle = Oracle(tasks)
    attempted = len(tasks) * len(rounds)
    failed = sum(oracle.tally(d, oracle.expected, record=True)
                 for *_, d in rounds)
    # Self-test: a wrong expected value must be counted as a failure.
    wrong_caught = oracle.tally(rounds[0][3], lambda i: wrong(oracle.expected(i)))
    selftest = {"wrong_oracle_caught": wrong_caught == len(tasks)}

    # A round's time runs from its first task start to its last task result,
    # less the probe calls.
    round_s = [sum(r[2]) for r in rounds]
    untraced_s = statistics.median(
        t for r, t in zip(rounds, round_s) if not r[0])
    # A task's latency is the median of its executions in the untraced
    # rounds, whose number is fixed by the workload and --seconds.
    untraced = [r[2] for r in rounds if not r[0]]
    latencies = [statistics.median(xs) for xs in zip(*untraced)]
    q = tail_percentile(len(latencies))
    out = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "tasks": len(tasks),
        "rounds": len(rounds),
        "planned_rounds": planned,
        "round_cpu_s": [sum(r[1]) for r in rounds],
        "round_s": round_s,
        "tail_percentile": q,
        "untraced_rounds": len(untraced),
        "attempted": attempted,
        "failed": failed,
        "errors": oracle.errors,
    }
    if tracer:
        per_round = [round_metrics(spans) for spans in traced_spans]
        # Counts repeat exactly from round to round; times are medians.
        layers = {name: value if isinstance(value, int)
                  else statistics.median(r[name] for r in per_round)
                  for name, value in per_round[0].items()}
        calls_repeat = all(
            r[name] == per_round[0][name] for r in per_round
            for name in r if not isinstance(r[name], float))
        layers["trace.overhead_frac"] = statistics.median(
            t for r, t in zip(rounds, round_s) if r[0]) / untraced_s - 1
        same_output = all(r[3] == rounds[0][3] for r in rounds)
        selftest.update(restored=not restore_left, calls_repeat=calls_repeat,
                        traced_output_unchanged=same_output)
        out["layers"] = layers
        if args.spans_out:
            write_spans(Path(args.spans_out), tasks, traced_spans)
    else:
        out["end_to_end"] = {
            "wall_s": untraced_s,
            "task_ms.p50": 1e3 * percentile(latencies, 50),
            "task_ms.tail": 1e3 * percentile(latencies, q),
            "peak_rss_mb": peak_rss_mb,
        }
    out["selftest"] = selftest
    out["fail_frac"] = failed / attempted
    print(json.dumps(out), flush=True)
    return 0


def write_spans(path, tasks, traced_spans):
    """All spans of the traced rounds, one JSON array per line:
    [round, name, parent, task id, start, end, outcome]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"tasks": [t.name for t in tasks]}) + "\n")
        for rnd, spans in enumerate(traced_spans):
            for name, parent, task, t0, t1, outcome in spans:
                fh.write(json.dumps([rnd, name, parent, task, t0, t1, outcome])
                         + "\n")


if __name__ == "__main__":
    sys.exit(main())
