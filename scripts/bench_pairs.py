"""Run the benchmark on two checkouts in alternating pairs and write BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload lattice \\
        --workload corpus-loop --seeds 1-10 --label mychange

Each directory is a whole checkout (src/, corpus/, perfbench/).  For every
workload and seed it runs `perfbench/run.py --workload W --seed S --seconds
T --trace 0` once in each checkout, one after the other, with T
BENCHMARK.json's run_seconds; the parent runs first at even pair numbers
and second at odd ones, so neither side always meets a warmer or cooler
machine.  Then, per workload, each side runs once more with `--trace 1` at
the first seed, parent first: the traced run checks the per-layer spans as
well as the outputs.  A run that prints no JSON result is recorded as null.

BENCH_<label>.json, written to the working directory, holds per workload:
every run's result line (`correct`, `attempted`, `failed`, `metrics`), the
seeds of the runs that are null or not correct per side ("left_out"), and
per end-to-end metric of BENCHMARK.json, over the pairs whose runs are both
correct, the parent's and the change's median, the distance between the
parent's quartiles (statistics.quantiles, inclusive method; null below two
pairs) and in how many pairs the change was better.  The traced runs'
result lines sit under "traced", with their seed, outside the medians.  The
script names every run, untraced or traced, that is null or not correct,
and then exits 1, after writing the file.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run(checkout: pathlib.Path, workload: str, seed: int, seconds: float, trace: int = 0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run([*cmd, "--trace", str(trace)], cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def usable(run) -> bool:
    """Whether a run printed a result and that result is correct."""
    return bool(run and run["correct"])


def summary(pairs, metrics) -> dict:
    """The seeds of the runs left out, per side, under "left_out"; then per
    metric, the pairs whose runs are both usable compared."""
    out = {"left_out": {side: [p["seed"] for p in pairs if not usable(p[side])] for side in ("parent", "change")}}
    kept = [p for p in pairs if usable(p["parent"]) and usable(p["change"])]
    for m in metrics:
        name = m["name"]
        got = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"]) for p in kept]
        if not got:
            continue
        parent, change = zip(*got)
        spread = None
        if len(got) >= 2:
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
            spread = q3 - q1
        better = sum((c > p) if m["better"] == "higher" else (c < p) for p, c in got)
        out[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartile_spread": spread,
            "change_better": f"{better}/{len(got)}",
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report, missing = {"seconds": seconds, "workloads": {}}, False
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = run(getattr(args, side), workload, seed, seconds)
                print(workload, seed, side, json.dumps(pair[side] and pair[side]["metrics"]), flush=True)
            pairs.append(pair)
        traced = {"seed": args.seeds[0]}
        for side in ("parent", "change"):
            traced[side] = run(getattr(args, side), workload, traced["seed"], seconds, trace=1)
            print(workload, traced["seed"], side, "traced", json.dumps(traced[side] and traced[side]["correct"]), flush=True)
        report["workloads"][workload] = {
            "pairs": pairs,
            "summary": summary(pairs, spec["end_to_end"]),
            "traced": traced,
        }
        for side, dropped in report["workloads"][workload]["summary"]["left_out"].items():
            if dropped:
                missing = True
                print(f"{workload}: {side} runs at seeds {dropped} printed no result or one not correct", flush=True)
            if not usable(traced[side]):
                missing = True
                print(f"{workload}: traced {side} run at seed {traced['seed']} printed no result or one not correct", flush=True)
    out = pathlib.Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
