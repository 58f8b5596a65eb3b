"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/summarize.py [--seeds 10] [--first-seed 1]
        [--workloads NAME ...] [--trace 0|1] [--out FILE] [--against FILE]

Runs ``BENCHMARK.json``'s command once per (workload, seed), one run at a
time, from the root of the checkout.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--against`` names an earlier ``--out`` file; each median
is then also given as its change relative to that file's median, positive
when worse.  ``--out`` writes the same figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(config, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,  # a layer a workload never runs
        "values": values,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    higher = {m["name"] for m in config["end_to_end"] + config["per_layer"] if m["better"] == "higher"}
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)["workloads"]
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = [
            run_once(config, workload, seed, args.seconds, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']} failed={sum(entry['failed'])}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarise(values) if len(values) > 1 else {"median": values[0], "values": values}
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            base = earlier.get(workload, {}).get("metrics", {}).get(name, {}).get("median")
            if base:
                change = stats["median"] / base - 1
                stats["worse_than_against"] = -change if name in higher else change
            bound = bounds.get(name)
            spread = stats.get("spread")
            worse = stats.get("worse_than_against")
            print(
                f"  {name:42s} median {stats['median']:12.6g} {stats['unit']:6s}"
                + (f" spread {spread:6.3f}" if spread is not None else "")
                + (f" worse {worse:+6.3f}" if worse is not None else "")
                + (f" bound {bound}" if bound is not None and not args.trace else ""),
                flush=True,
            )
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
