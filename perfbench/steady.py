"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py                       # 2 sets x 10 runs
    python3 perfbench/steady.py --runs 3 --workloads gateway-2w

Runs two sets of runs of ``perfbench/run.py`` (``--trace 0``),
``--runs`` per workload in each set, each run with its own seed,
alternating the order of the workloads from one run to the next.  For
every end-to-end metric of ``BENCHMARK.json`` it prints each set's
median, quartiles and spread (the distance between the quartiles as a
share of the median), and whether the spreads and the difference
between the two medians, in either direction, stay within the metric's
bound.  ``setup_s`` is exempt from the spread test, as the benchmark
contract has it.  The share of failed operations must be identical in
every run.  Exits 1 when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({completed.returncode}):\n{completed.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def summarize(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for set_index in range(SETS):
        for run in range(args.runs):
            seed = args.seed_base + set_index * args.runs + run
            order = workloads if run % 2 == 0 else workloads[::-1]
            for workload in order:
                result = run_once(workload, seed, args.seconds)
                results[workload][set_index].append(result)
                print(f"set {set_index + 1} run {run + 1} {workload} "
                      f"seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"wall={result['wall_s']:.1f}s", flush=True)

    agree = True
    for workload in workloads:
        print(f"\n{workload}")
        sets = results[workload]
        shares = {result["failed"] / result["attempted"]
                  for runs in sets for result in runs}
        correct = all(result["correct"] for runs in sets
                      for result in runs)
        if len(shares) != 1 or not correct:
            agree = False
        print(f"  correct in every run: {correct}; failed shares: "
              f"{sorted(shares)}")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            ok = all(s["spread"] <= bound for s in stats) or (
                name == "setup_s")
            cells = [f"med {s['median']:.5g} q1 {s['q1']:.5g} "
                     f"q3 {s['q3']:.5g} spread {s['spread']:.3f}"
                     for s in stats]
            move = stats[1]["median"] / stats[0]["median"] - 1.0
            ok = ok and abs(move) <= bound
            cells.append(f"second median {move:+.3f}")
            agree = agree and ok
            print(f"  {name:18} bound {bound:.2f} "
                  f"{'ok ' if ok else 'BAD'} " + " | ".join(cells))
    print("\nthe sets agree" if agree else "\nthe sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
