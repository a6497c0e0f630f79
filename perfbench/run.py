"""Benchmark of sphere-sumrules: one workload, one caller, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from `src/`
there and nowhere else.  The untimed part sets up: it imports the package,
makes the inputs from the seed and runs one warm-up pass over the
workload's fixed operation list.  The timed part repeats whole rounds of
that list until S seconds have passed.

Without --trace the rounds are spread over the workload's worker
processes.  Each worker is a fresh process that sets itself up in turn;
then the workers take turns, one round at a time, so only one of them runs
at any moment.  A worker times each operation by its best time over its
rounds, and every metric is the median over the workers: how fast a
process runs this code depends on the process as well as on the moment
(see README.md, Steadiness).  The outputs of every round come back to this
process, which checks them and prints one JSON object as the last line of
standard output.

With --trace 1 one process alternates untraced and traced rounds, with
every layer wrapped in spans, and prints the per-layer metrics (per traced
round) and the tracing overhead instead.  Spans go to perfbench/out/.
"""

import os

# OpenBLAS (0.3.31 here) otherwise starts one thread per core; the
# benchmark measures one caller on one thread.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import importlib
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
PACKAGE = "sphere_sumrules"
MODULES = ("cli", "density", "harmonics", "quadrature", "rayleigh_ritz",
           "sumrules", "tails", "weyl")
# Every worker times at least this many rounds, however long one takes.
MIN_ROUNDS = 3


def import_program():
    """Import the package from this tree's src/; returns (package, seconds)."""
    init = os.path.join(SRC, PACKAGE, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("error: no program source at %s" % init)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    pkg = importlib.import_module(PACKAGE)
    for name in MODULES:
        importlib.import_module(PACKAGE + "." + name)
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.dirname(init):
        raise SystemExit("error: %s was imported from %s, not from %s"
                         % (PACKAGE, pkg.__file__, SRC))
    return pkg, elapsed


def set_up(pkg, make_ops, seed, workdir):
    """Inputs plus one warm-up pass; returns ops, warm-up outputs, seconds."""
    import numpy as np

    start = time.perf_counter()
    ops = make_ops(pkg, np.random.default_rng(seed), workdir)
    warm = []
    for op in ops:
        try:
            warm.append(op.run())
        except Exception as exc:  # counted when the timed rounds fail
            warm.append(exc)
    return ops, warm, time.perf_counter() - start


def run_round(ops, times, outputs, tracer=None):
    """One pass over ops, each timed; returns the number that raised."""
    failed = 0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = tracer.span("op", op.run) if tracer else op.run()
        except Exception as exc:
            failed += 1
            out = exc
        times[i].append(time.perf_counter() - t0)
        outputs[i].append(out)
    return failed


def worker(args):
    """Set up, then run one round per `round` line on stdin.

    Replies on the original standard output, one line per step; the
    program's own prints go to standard error.  At `end` the times and
    outputs are pickled to <workdir>/worker-<index>.pkl.
    """
    import workloads

    reply = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    pkg, import_s = import_program()
    make_ops = workloads.WORKLOADS[args.workload][0]
    ops, warm, setup_s = set_up(pkg, make_ops, args.seed, args.workdir)
    gc.collect()
    times = [[] for _ in ops]
    outputs = [[] for _ in ops]
    failed = 0
    reply.write("ready\n")
    for line in sys.stdin:
        if line.strip() != "round":
            break
        failed += run_round(ops, times, outputs)
        reply.write("done\n")
    result = {
        "setup_s": import_s + setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "times": times, "outputs": outputs, "warm": warm, "failed": failed,
    }
    path = os.path.join(args.workdir, "worker-%d.pkl" % args.worker)
    with open(path, "wb") as handle:
        pickle.dump(result, handle)
    reply.write("bye\n")
    return 0


class Worker:
    """A worker process, driven one line at a time."""

    def __init__(self, args, index, workdir):
        self.path = os.path.join(workdir, "worker-%d.pkl" % index)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", str(index),
             "--workdir", workdir, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def expect(self, word):
        line = self.proc.stdout.readline().strip()
        if line != word:
            raise SystemExit("error: worker replied %r, not %r" % (line, word))

    def send(self, word, reply):
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        self.expect(reply)

    def finish(self):
        self.send("end", "bye")
        self.proc.stdin.close()
        self.proc.wait()
        with open(self.path, "rb") as handle:
            return pickle.load(handle)


def run_workers(args, count, workdir):
    """Start `count` workers one after another, then round-robin whole
    rounds over them until `args.seconds` pass and each has MIN_ROUNDS."""
    workers = []
    try:
        for index in range(count):
            workers.append(Worker(args, index, workdir))
            workers[-1].expect("ready")
        begin = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - begin < args.seconds:
            for w in workers:
                w.send("round", "done")
            rounds += 1
        return [w.finish() for w in workers]
    finally:
        for w in workers:
            if w.proc.poll() is None:
                w.proc.kill()
            w.proc.wait()


def check_outputs(ops, warm, outputs):
    """Run every op's check on its warm-up and timed outputs."""
    import workloads

    problems = []
    for op, first, outs in zip(ops, warm, outputs):
        for out in [first] + outs:
            if isinstance(out, Exception):
                problems.append("%s raised %r" % (op.name, out))
                continue
            try:
                op.check(out)
            except workloads.CheckFailed as exc:
                problems.append("%s: %s" % (op.name, exc))
    return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_times(ops, times):
    for op, t in zip(ops, times):
        sys.stderr.write("%-52s best %.6f s  median %.6f s  of %d\n"
                         % (op.name, min(t), statistics.median(t), len(t)))


def end_to_end(args, pkg, make_ops, count, workdir):
    """The untraced run over `count` workers; returns the result object."""
    import numpy as np

    results = run_workers(args, count, workdir)
    ops = make_ops(pkg, np.random.default_rng(args.seed), workdir)
    problems = []
    per_worker = {"setup_s": [], "ops_per_s": [], "op_p50_s": [],
                  "peak_rss_mb": []}
    attempted = failed = 0
    for result in results:
        times = result["times"]
        report_times(ops, times)
        problems += check_outputs(ops, result["warm"], result["outputs"])
        done = sum(len(t) for t in times)
        attempted += done
        failed += result["failed"]
        # A round with every operation at its best time in this worker.
        best = [min(t) for t in times]
        per_worker["setup_s"].append(result["setup_s"])
        per_worker["ops_per_s"].append(
            len(ops) * (done - result["failed"]) / done / sum(best))
        per_worker["op_p50_s"].append(statistics.median(best))
        per_worker["peak_rss_mb"].append(result["peak_rss_mb"])
    for problem in problems[:20]:
        sys.stderr.write("CHECK FAILED %s\n" % problem)
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
             "peak_rss_mb": "MB"}
    metrics = {name: metric(statistics.median(values), units[name])
               for name, values in per_worker.items()}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced(args, pkg, make_ops, workdir):
    """Alternate untraced and traced rounds in this process; returns the
    result object with the per-layer metrics."""
    import tracer as tracing

    ops, warm, _ = set_up(pkg, make_ops, args.seed, workdir)
    gc.collect()
    tracer = tracing.Tracer()
    times = [[] for _ in ops]
    outputs = [[] for _ in ops]
    failed = 0
    wall = {False: [0.0, 0], True: [0.0, 0]}
    begin = time.perf_counter()
    rounds = 0
    while (rounds < MIN_ROUNDS or rounds % 2
           or time.perf_counter() - begin < args.seconds):
        on = rounds % 2 == 1
        if on:
            tracer.install()
        start = time.perf_counter()
        failed += run_round(ops, times, outputs, tracer if on else None)
        wall[on][0] += time.perf_counter() - start
        wall[on][1] += 1
        if on:
            tracer.uninstall()
        rounds += 1
    report_times(ops, times)
    problems = check_outputs(ops, warm, outputs)
    for problem in problems[:20]:
        sys.stderr.write("CHECK FAILED %s\n" % problem)
    path = os.path.join(OUT, "trace-%s.csv" % args.workload)
    tracer.write(path)
    sys.stderr.write("spans written to %s\n" % path)
    return {"correct": not problems,
            "attempted": sum(len(t) for t in times), "failed": failed,
            "metrics": per_layer(tracer, wall)}


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return worker(args)

    pkg, _ = import_program()
    make_ops, count = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.trace:
            result = traced(args, pkg, make_ops, workdir)
        else:
            result = end_to_end(args, pkg, make_ops, count, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def per_layer(tracer, wall):
    """BENCHMARK.json's per-layer metrics per traced round, and the
    tracing overhead (`trace.overhead_pct`)."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        wanted = json.load(handle)["per_layer"]
    stats = tracer.stats()
    traced_s, traced_n = wall[True]
    plain_s, plain_n = wall[False]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name == "trace.overhead_pct":
            value = 100.0 * ((traced_s / traced_n) / (plain_s / plain_n) - 1.0)
        else:
            span, stat = name.rsplit(".", 1)
            value = stats.get(span, {}).get(stat, 0)
            # distinct_rules counts over all traced rounds, which repeat
            # the same calls; the rest are totals, reported per round.
            if stat != "distinct_rules":
                value = value / traced_n
        metrics[name] = metric(value, unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
