#!/usr/bin/env python3
"""Steadiness check of the repo benchmark (see perfbench/README.md).

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--sets 2]
                                [--record perfbench/steadiness.json]

Runs every workload once per seed, `--sets` times over, and prints for each
end-to-end metric the median, first and third quartile of each set
(statistics.quantiles(n=4)), the spread (Q3 - Q1) / median, its bound from
BENCHMARK.json, and how far the second set's median moved from the first's.
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--record", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    record = {"seconds": bench["run_seconds"], "seeds": seeds,
              "nproc": os.cpu_count(), "workloads": {}}
    worst = 0.0
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    raise RuntimeError(f"{workload} seed {seed}: {result}")
                runs.append(result["metrics"])
            summary = {name: summarize([r[name]["value"] for r in runs])
                       for name in bounds}
            for name in bounds:
                summary[name]["values"] = [r[name]["value"] for r in runs]
            sets.append(summary)
        record["workloads"][workload] = sets
        print(f"\n{workload}")
        for name, bound in bounds.items():
            cells = []
            for s in sets:
                st = s[name]
                cells.append(f"{st['median']:.6g} [{st['q1']:.6g}, "
                             f"{st['q3']:.6g}] spread {st['spread']:.3f}")
            drift = (sets[-1][name]["median"] / sets[0][name]["median"] - 1
                     if len(sets) > 1 else 0.0)
            if name != "setup_s":
                worst = max(worst, max(s[name]["spread"] / bound
                                       for s in sets))
            print(f"  {name:16s} bound {bound:.2f}  " + " | ".join(cells) +
                  f"  drift {drift:+.3f}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
