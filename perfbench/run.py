"""Benchmark of gradedtrace: four fixed workloads, run from a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of poly-resolve, int-presentations, free-categorical,
cli-documents.  The run imports the program from src/ of the checkout,
sets it up several times, then repeats whole rounds of its op list until
the timed rounds add up to S seconds and at least two rounds ran.
Each round's answers are checked against the references in checks.py.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, their times scaled to a nominal host speed (see
REFERENCE_S); with --trace 1 the round runs under the profiler
instead and the object holds the per-layer metrics of layers.py.  A file
with the same object plus the names of failed ops is written to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
MIN_ROUNDS = 2

# The host this benchmark was made on changes speed by 15-35 % from one
# minute to the next, for the program and for any other Python code alike.
# A fixed loop of interpreter work that touches no gradedtrace code runs
# between ops, about every REFERENCE_EVERY_S seconds; each latency is
# divided by the host's slowdown around it, the median of the last
# REFERENCE_WINDOW loop times over REFERENCE_S, so reported times are those
# of a host on which that loop takes REFERENCE_S.
REFERENCE_S = 0.004
REFERENCE_EVERY_S = 0.2
REFERENCE_WINDOW = 5


def reference_loop() -> float:
    """Seconds one pass of the fixed reference work takes now."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(6000):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + i * 7 % 11
    sorted(table.items())
    return time.perf_counter() - start


def ensure_hash_seed() -> None:
    """Re-execute this process with a fixed hash seed, so set and dict order repeat."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kept-child", help=argparse.SUPPRESS)
    parser.add_argument("--write-docs", metavar="DIR", help="write the cli-documents documents of --seed to DIR and exit")
    return parser.parse_args(argv)


def import_program():
    """A fresh import of gradedtrace, cli included."""
    for name in [n for n in sys.modules if n == "gradedtrace" or n.startswith("gradedtrace.")]:
        del sys.modules[name]
    gt = importlib.import_module("gradedtrace")
    importlib.import_module("gradedtrace.cli")
    return gt


def set_up(workloads, name: str, seed: int):
    """Import and build the inputs SETUP_REPEATS times; keep the last.

    Returns the program, the workload, the median set-up time and the same
    scaled by the slowdown measured right before and after each set-up.
    """
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gt = workload = None  # let the previous import's objects go before timing the next
        gc.collect()
        before = reference_loop()
        start = time.perf_counter()
        gt = import_program()
        workload = workloads.build(name, gt, seed, OUT)
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * 2 * REFERENCE_S / (before + reference_loop()))
    return gt, workload, statistics.median(times), statistics.median(scaled)


class Rounds:
    """The rounds of one run: each runs the op list, its checks and its kept failures."""

    def __init__(self, workload):
        self.workload = workload
        self.raw: dict = {}  # op -> its latencies over every visit and round
        self.scaled: dict = {}  # op -> the same, each divided by the slowdown around it
        self.reference: list[float] = []  # reference_loop times taken between ops
        self.slowdown = 1.0
        self.rounds = 0
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.failed_names: list[str] = []
        self.errors: list[str] = []

    def measure_reference(self, loops: int = 1) -> float:
        """Time the reference loop; returns the slowdown these loops alone show."""
        fresh = [reference_loop() for _ in range(loops)]
        self.reference.extend(fresh)
        self.slowdown = statistics.median(self.reference[-REFERENCE_WINDOW:]) / REFERENCE_S
        return statistics.median(fresh) / REFERENCE_S

    def timed(self) -> list:
        outputs = []
        start = time.perf_counter()
        self.measure_reference()
        last_reference = time.perf_counter()
        for op in self.workload.ops:
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                self.measure_reference()
                last_reference = time.perf_counter()
            slowdown = self.slowdown
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that should finish raised: a wrong answer
                outputs.append(None)
                self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                self.failed += 1
                self.failed_names.append(op.name)
                continue
            dt = time.perf_counter() - t0
            if dt > REFERENCE_EVERY_S:
                # the host may have changed speed while a long op ran
                slowdown = (slowdown + self.measure_reference(3)) / 2
                last_reference = time.perf_counter()
            self.raw.setdefault(op, []).append(dt)
            self.scaled.setdefault(op, []).append(dt / slowdown)
            outputs.append(out)
        self.wall += time.perf_counter() - start
        self.attempted += len(self.workload.ops)
        self.rounds += 1
        return outputs

    @staticmethod
    def op_medians(samples: dict) -> list[float]:
        """Each op's median latency over the run; one sample per distinct op."""
        return [statistics.median(v) for v in samples.values()]

    def check(self, outputs: list, checks) -> None:
        for op, out in zip(self.workload.ops, outputs):
            if out is None:
                continue
            try:
                op.check(out)
            except checks.CheckFailed as exc:
                self.errors.append(str(exc))

    def kept(self) -> None:
        for k in self.workload.kept:
            self.attempted += 1
            if k.run():
                self.failed += 1
                self.failed_names.append(k.name)


def end_to_end(args, workloads, checks) -> dict:
    gt, workload, raw_setup_s, setup_s = set_up(workloads, args.workload, args.seed)
    state = Rounds(workload)
    while state.wall < args.seconds or state.rounds < MIN_ROUNDS:
        outputs = state.timed()
        state.check(outputs, checks)
        del outputs
        state.kept()
    ops_per_s, p50, p90 = op_timings(state.op_medians(state.scaled))
    raw_ops_per_s, raw_p50, raw_p90 = op_timings(state.op_medians(state.raw))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "distinct_ops": len(state.raw), "rounds": state.rounds, "timed_seconds": state.wall,
        "median_slowdown": statistics.median(state.reference) / REFERENCE_S,
        "unscaled": {"setup_s": raw_setup_s, "ops_per_s": raw_ops_per_s, "op_p50_ms": raw_p50 * 1e3, "op_p90_ms": raw_p90 * 1e3},
    }
    return result(state, metrics, detail)


def op_timings(medians: list[float]) -> tuple[float, float, float]:
    """(ops per second, p50, p90) from each distinct op's median latency.

    The op list's time is the sum of each op's median latency: a burst of
    load from outside the process then moves the figures of a run less than
    the plain wall time of its rounds would.
    """
    if len(medians) < 2:  # every op raised; the run is already marked wrong
        return 0.0, 0.0, 0.0
    return len(medians) / sum(medians), statistics.median(medians), statistics.quantiles(medians, n=10)[8]


def traced(args, workloads, checks, layers) -> dict:
    gt, workload, _, _ = set_up(workloads, args.workload, args.seed)
    tracer = layers.Tracer(gt)
    state = Rounds(workload)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        values, outputs = tracer.measure(state.timed)
        passes.append(values)
        state.check(outputs, checks)
        del outputs
        state.kept()
    first = passes[0]
    for i, values in enumerate(passes[1:], 2):
        for name in layers.EXACT:
            if values[name] != first[name]:
                state.errors.append(f"per-layer count {name} is {values[name]} in pass {i} but {first[name]} in pass 1")
    metrics = {
        name: (statistics.median(p[name] for p in passes) if layers.UNITS[name] == "s" else first[name], layers.UNITS[name])
        for name in layers.METRICS
    }
    return result(state, metrics, {"passes": len(passes), "unscaled_ops_per_s": op_timings(state.op_medians(state.raw))[0]})


def result(state: Rounds, metrics: dict, detail: dict) -> dict:
    return {
        "correct": not state.errors,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": dict(detail, failed_ops=sorted(set(state.failed_names)), errors=state.errors[:20]),
    }


def report(args, res: dict) -> None:
    detail = res.pop("detail")
    for name, m in res["metrics"].items():
        print(f"{args.workload:<18} {name:<28} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:<18} attempted {res['attempted']}, failed {res['failed']} {detail['failed_ops']}")
    for err in detail["errors"]:
        print(f"{args.workload:<18} WRONG: {err}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(res, detail=detail), fh, indent=1)
    print(json.dumps(res))


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    ensure_hash_seed()
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "gradedtrace", "__init__.py")):
        print(f"perfbench: no gradedtrace package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import workloads

    if args.kept_child:
        print(json.dumps(workloads.kept_child(import_program(), args.kept_child)))
        return 0
    if args.write_docs:
        workloads.write_documents(workloads.cli_documents(args.seed)[0], args.write_docs)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    checks.self_test()
    if args.trace:
        import layers

        res = traced(args, workloads, checks, layers)
    else:
        res = end_to_end(args, workloads, checks)
    report(args, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
