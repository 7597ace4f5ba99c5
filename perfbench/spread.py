"""Run the benchmark over several seeds and report each metric's
median, quartiles and spread (interquartile distance over median)
against the bound ``BENCHMARK.json`` fixes for it.

    python3 perfbench/spread.py --workload open-mixed --seeds 1-10 \\
        [--trace 1] [--out spread.json]

Runs are made one after another from the checkout root, with the
command and ``run_seconds`` of ``BENCHMARK.json``.  A spread above a
third of its bound is flagged ``wide``; one above the bound ``OVER``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

from stats import quartiles, relative_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(spec: Dict, workload: str, seed: int, trace: int) -> Dict:
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report: Dict[str, Dict] = {}
    for workload in args.workload:
        runs = [run_once(spec, workload, seed, args.trace) for seed in seeds]
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            rows[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": relative_spread(values),
                "bound": bounds.get(name),
                "values": values,
            }
        elapsed = [r["elapsed_s"] for r in runs]
        report[workload] = {
            "seeds": seeds,
            "metrics": rows,
            "elapsed_s": elapsed,
        }
        print(f"{workload}: {len(seeds)} seeds, {sum(elapsed):.0f} s in all")
        for name, row in rows.items():
            bound = row["bound"]
            flag = ""
            if bound is not None and row["spread"] > bound:
                flag = "OVER"
            elif bound is not None and row["spread"] > bound / 3:
                flag = "wide"
            print(
                f"  {name:40s} median {row['median']:<14.6g} "
                f"q1 {row['q1']:<14.6g} q3 {row['q3']:<14.6g} "
                f"spread {row['spread']:.4f} bound {bound} {flag}"
            )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
