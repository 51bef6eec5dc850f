"""Benchmark of the conify pipeline: one workload per process, or all of them.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --seed 3

The first form runs one workload in this process, with no threads of its own
(BLAS is held to one thread unless the environment says otherwise).  It sets
up, runs passes for the given seconds, checks every op's output, prints each
metric by name and unit, then a `record` line (seed, machine, tail
percentile, per-input counts) and, last, the JSON result.  With --trace 0 the
result holds the end-to-end metrics of BENCHMARK.json; with --trace 1 it
holds the per-layer ones: the run measures half its time untraced and half
with every layer function wrapped in a span, and reports the difference as
the tracing overhead.

The second form runs every workload untraced and then traced, each in its own
process, prints all their metrics, and checks that the deterministic counts
repeat exactly between the two runs.  It exits 1 if anything failed.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass

from spans import Tracer, clock

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated and its median reported; a repeat starts only while the
# repeats so far took less than the budget (one lattice op is about 15 s).
SETUP_REPEATS = 3
SETUP_BUDGET_S = 6.0
# Every workload.  BENCHMARK.json gates corpus-loop and lattice only: on the
# shared 2-vCPU host, kchain's timings spread by up to 24 % over ten seeds of
# 24 s runs, as much as the largest bound the benchmark may set.  Its ops
# last up to 2.7 s, long enough to mix the host's fast and slow phases, so no
# percentile of them reads one phase alone.
WORKLOAD_NAMES = ("corpus-loop", "kchain", "lattice")
# The raw tail in the record line is the highest percentile with at least this
# many samples beyond it.
TAIL_BEYOND = 10
# The percentile of each input's op latencies that the timing metrics read.
INPUT_PERCENTILE = 90
# Per-input counts an op reads from its outputs, and the span counts they equal.
OUTPUT_COUNTS = {
    "steps.linearize": "reduce.steps.linearize",
    "steps.graph_expand": "reduce.steps.graph_expand",
    "steps.eliminate_redundant": "reduce.steps.eliminate_redundant",
    "points": "oracle.points",
    "feasible": "oracle.feasible",
}


@dataclass
class Op:
    key: str
    seconds: float
    counts: dict | None
    error: str | None


@dataclass
class Pass:
    seconds: float  # CPU time, as every timing the benchmark reports
    wall: float
    ops: list


def _raised_at(e: Exception) -> str:
    """Where in the program an exception was raised; empty for the
    benchmark's own check failures."""
    frames = [f for f in traceback.extract_tb(e.__traceback__) if not f.filename.startswith(str(HERE))]
    return f" (at {frames[-1].filename}:{frames[-1].lineno})" if frames else ""


class Runner:
    """Runs passes of one workload and checks that counts repeat per input."""

    def __init__(self, workload):
        self.workload = workload
        self.counts: dict[str, dict] = {}

    def run_pass(self, tracer=None) -> Pass:
        ops = []
        start, wall = clock(), time.perf_counter()
        for key in self.workload.next_pass():
            t = clock()
            root = tracer.begin("op") if tracer else None
            try:
                counts, error = self.workload.run_op(key), None
            except Exception as e:  # a failed op is counted; the run goes on
                counts, error = None, f"{key}: {type(e).__name__}: {e}{_raised_at(e)}"
            if tracer:
                tracer.end(root)
            seconds = clock() - t
            if counts is not None:
                first = self.counts.setdefault(key, counts)
                if first != counts:
                    counts, error = None, f"{key}: counts {counts} differ from earlier {first}"
            ops.append(Op(key, seconds, counts, error))
        return Pass(clock() - start, time.perf_counter() - wall, ops)

    def measure(self, seconds: float, tracer=None) -> list[Pass]:
        """Whole passes for about `seconds` of wall time: at least one, then
        another only while one as long as the last still fits."""
        end = time.perf_counter() + seconds
        passes = [self.run_pass(tracer)]
        while time.perf_counter() + passes[-1].wall <= end:
            passes.append(self.run_pass(tracer))
        return passes


def percentile(values, pct: float) -> float:
    """The pct-th percentile of values, interpolated between order statistics."""
    ordered = sorted(values)
    at = pct / 100 * (len(ordered) - 1)
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def input_latency(passes) -> dict[str, float]:
    """Per input: the INPUT_PERCENTILE-th percentile of its ops' latencies.

    On the shared 2-vCPU host the benchmark was built on, the same op ran at
    speeds up to 2x apart, switching every few seconds with other tenants'
    load, and the share of a run spent in slow phases changed from run to
    run.  A run's median or mean follows that share, and so did its fastest
    ops; the slow phases' own speed held within about 5 % across runs.  For
    ops much shorter than a phase, the 90th percentile of each input reads
    that speed whenever a tenth of the run fell in slow phases.
    """
    samples: dict[str, list[float]] = {}
    for op in (op for p in passes for op in p.ops):
        samples.setdefault(op.key, []).append(op.seconds)
    return {key: percentile(values, INPUT_PERCENTILE) for key, values in samples.items()}


def ops_per_s(passes) -> float:
    """Ops per second of CPU time with every op at its input's latency, in
    the mix of inputs the passes took."""
    latency = input_latency(passes)
    keys = [op.key for p in passes for op in p.ops]
    return len(keys) / sum(latency[key] for key in keys)


def tail(samples) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and which
    percentile that is; with too few samples, the maximum (percentile 100)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def steal_s() -> float:
    """CPU time the host took from this machine's virtual CPUs so far."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def end_to_end(passes, setup_s: float) -> tuple[dict, dict, list]:
    latency = input_latency(passes)
    slowest = max(latency, key=latency.get)
    ops = [op for p in passes for op in p.ops]
    raw = [op.seconds for op in ops]
    raw_tail_s, raw_pct = tail(raw)
    sizes = {sum(op.counts["conic_size"] for op in p.ops) for p in passes if all(op.counts for op in p.ops)}
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(passes),
        "op_ms.p50": statistics.median(latency[op.key] for op in ops) * 1e3,
        "op_ms.tail": latency[slowest] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "conic_size": min(sizes, default=0),
    }
    notes = {
        "op_ms.tail": {"input": slowest, "least_ops_per_input": min(Counter(op.key for op in ops).values())},
        "input_op_ms": {key: seconds * 1e3 for key, seconds in sorted(latency.items())},
        "raw_op_ms": {"p50": statistics.median(raw) * 1e3, "tail": raw_tail_s * 1e3,
                      "tail_percentile": round(raw_pct, 3), "samples": len(raw)},
    }
    problems = [f"conic size differs between passes: {sorted(sizes)}"] if len(sizes) > 1 else []
    return values, notes, problems


def per_layer(metrics, tracer, traced, plain) -> tuple[dict, dict, list]:
    """Self time per pass of each span name, and counts per pass."""
    n = len(traced)
    total, own = tracer.totals()
    counts = tracer.counts
    values = {}
    for m in metrics:
        if m["unit"] == "ms":
            values[m["name"]] = own.get(m["name"][:-3], 0.0) * 1e3 / n
        elif m["unit"] == "count":
            values[m["name"]] = counts.get(m["name"], 0) / n
    scan_s = total.get("oracle.grid_minimize", 0.0) + total.get("oracle.grid_minimize_conic", 0.0)
    points = counts.get("oracle.points", 0)
    values["oracle.points_per_s"] = points / scan_s if scan_s else 0.0
    values["oracle.feasible_frac"] = counts.get("oracle.feasible", 0) / points if points else 0.0
    untraced, with_spans = ops_per_s(plain), ops_per_s(traced)
    values["trace.overhead_ops_per_s"] = untraced - with_spans
    values["trace.overhead_frac"] = (untraced - with_spans) / untraced

    # The wrappers' counts must match what the ops read from their outputs.
    from_outputs = Counter()
    for op in (op for p in traced for op in p.ops if op.counts):
        for key, value in op.counts.items():
            if key in OUTPUT_COUNTS:
                from_outputs[OUTPUT_COUNTS[key]] += value
    problems = [f"{name}: spans counted {counts.get(name, 0)}, outputs say {value}"
                for name, value in from_outputs.items() if counts.get(name, 0) != value]

    # Each op's root span must hold its layers' self times and nothing more:
    # children inside parents, and the subtree's self times summing to the
    # op's time as the runner measured it.
    problems += tracer.nesting_errors()
    op_times = [op.seconds for p in traced for op in p.ops]
    sums = tracer.root_self_sums()
    if len(sums) != len(op_times):
        problems.append(f"{len(sums)} root spans for {len(op_times)} ops")
    gaps = [abs(op_time - summed) for (_, summed), op_time in zip(sums, op_times)]
    if any(gap > 1e-4 + 1e-3 * op_time for gap, op_time in zip(gaps, op_times)):
        problems.append(f"self times miss an op's time by up to {max(gaps) * 1e3:.3f} ms")
    notes = {
        "traced_passes": n,
        "untraced_ops_per_s": untraced,
        "traced_ops_per_s": with_spans,
        "self_time_vs_op_max_gap_ms": max(gaps, default=0.0) * 1e3,
        "layer_share_of_op_time": 1 - own.get("op", 0.0) / sum(op_times),
    }
    return values, notes, problems


def run_one(spec: dict, args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    start = clock()
    if not (ROOT / "src" / "conify" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no conify sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and conify

    import_s = clock() - start
    make = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        setup_times, warm_errors = [], []
        while len(setup_times) < SETUP_REPEATS and sum(setup_times) < SETUP_BUDGET_S:
            t = clock()
            workdir = pathlib.Path(tmp) / f"setup{len(setup_times)}"
            workdir.mkdir()
            runner = Runner(make(args.seed, workdir))
            warm = runner.run_pass()
            setup_times.append(clock() - t)
            warm_errors += [op.error for op in warm.ops if op.error]
        setup_s = import_s + statistics.median(setup_times)

        steal_before = steal_s()
        if args.trace:
            plain = runner.measure(args.seconds / 2)
            tracer = Tracer()
            tracer.install(workloads.LAYER_MODULES, workloads.layer_targets())
            try:
                traced = runner.measure(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes = plain + traced
            names = spec["per_layer"]
            values, notes, problems = per_layer(names, tracer, traced, plain)
        else:
            passes = runner.measure(args.seconds)
            names = spec["end_to_end"]
            values, notes, problems = end_to_end(passes, setup_s)
        notes["measured"] = {
            "cpu_s": sum(p.seconds for p in passes),
            "wall_s": sum(p.wall for p in passes),
            "host_steal_s": steal_s() - steal_before,
        }

    ops = [op for p in passes for op in p.ops]
    errors = warm_errors + [op.error for op in ops if op.error]
    failed = sum(op.error is not None for op in ops)
    correct = not errors and not problems
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {len(ops)} ops, correct={correct}")
    metrics = {}
    for m in names:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        extra = ""
        if m["name"] == "op_ms.tail":
            t = notes["op_ms.tail"]
            extra = f"  (slowest input: {t['input']}, p{INPUT_PERCENTILE} of {t['least_ops_per_input']}+ ops)"
        print(f"  {m['name']:30s} {values[m['name']]:14.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':30s} {failed / len(ops):14.6g} ratio  ({failed} of {len(ops)} ops)")
    for message in (errors + problems)[:10]:
        print(f"  FAIL {message}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "import_s": import_s, "setup_repeats_s": setup_times,
        "passes": len(passes), "fail_frac": failed / len(ops), **notes,
        "counts": runner.counts, "errors": (errors + problems)[:10],
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    ok = True
    for workload in WORKLOAD_NAMES:
        records = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines if not line.startswith(("record ", "{"))))
            if done.returncode != 0 or not lines:
                print(f"  FAIL exit {done.returncode}: {done.stderr.strip()[-500:]}")
                ok = False
                break
            result = json.loads(lines[-1])
            records.append(json.loads(next(l for l in lines if l.startswith("record "))[7:]))
            ok &= result["correct"]
        if len(records) == 2:
            untraced, traced = (r["counts"] for r in records)
            shared = sorted(set(untraced) & set(traced))
            differ = [k for k in shared if untraced[k] != traced[k]]
            ok &= bool(shared) and not differ
            print(f"  counts repeat exactly on {len(shared) - len(differ)} of {len(shared)} inputs"
                  + (f"; differ on {differ}" if differ else ""))
    print("all workloads correct" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload in this process (default: all, each in its own)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
