#!/usr/bin/env python3
"""Report-only benchmark comparison for the nightly bench lane.

Compares two google-benchmark JSON files (committed baseline vs a fresh
run) benchmark-by-benchmark and prints a delta table. Regressions beyond
the threshold are called out loudly, but the exit code is always 0: shared
CI runners are too noisy to gate merges on wall-clock numbers, so this lane
exists to leave a visible trail in the nightly logs, not to block.

A file recorded with repetitions (tools/bench_dispatch.sh keeps the
"median" and "cv" aggregate rows) is compared on its medians, and a delta
only counts outside max(threshold, CV_K * CV), with CV the larger of the
two sides' coefficients of variation: a case whose own runs spread by 8%
cannot show a 10% change. Single-run files fall back to their iteration
rows and the plain threshold.

Usage: tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold PCT]
"""

import argparse
import json
import sys

# A delta must also exceed this many CVs of the noisier side.
CV_K = 3


def load_benchmarks(path):
    """Returns (context, {name: row}, {name: cv fraction}).

    With median aggregate rows present, each case is its median row (keyed
    by run_name) and its cv row, if any, gives the spread. Otherwise each
    case is its iteration row and has no recorded spread.
    """
    with open(path) as f:
        data = json.load(f)
    rows = data.get("benchmarks", [])
    medians = {b["run_name"]: b for b in rows
               if b.get("aggregate_name") == "median"}
    if not medians:
        iterations = {b["name"]: b for b in rows
                      if b.get("run_type") != "aggregate"}
        return data.get("context", {}), iterations, {}
    cvs = {b["run_name"]: b["real_time"] for b in rows
           if b.get("aggregate_name") == "cv"}
    return data.get("context", {}), medians, cvs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--threshold", type=float, default=10.0,
        help="percent slowdown that counts as a regression (default 10)")
    args = parser.parse_args()

    base_ctx, base, base_cv = load_benchmarks(args.baseline)
    cand_ctx, cand, cand_cv = load_benchmarks(args.candidate)

    for label, ctx in (("baseline", base_ctx), ("candidate", cand_ctx)):
        build = ctx.get("mbts_build_type", "unknown")
        print(f"{label}: mbts_build_type={build}")
        if build != "release":
            print(f"  warning: {label} numbers are not from a release build")

    # Core counts travel with the numbers (bench_main.hpp records
    # "mbts_nproc"): the sharded sweeps scale with the host, so a delta
    # between JSONs from different machines is a host change, not a
    # regression.
    base_nproc = base_ctx.get("mbts_nproc")
    cand_nproc = cand_ctx.get("mbts_nproc")
    if base_nproc is None or cand_nproc is None:
        print("warning: mbts_nproc missing from "
              + ", ".join(label for label, v in
                          (("baseline", base_nproc), ("candidate", cand_nproc))
                          if v is None)
              + " — cannot tell whether both ran on comparable hosts")
    elif base_nproc != cand_nproc:
        print(f"warning: core counts differ (baseline {base_nproc} vs "
              f"candidate {cand_nproc}); wall-clock deltas below mostly "
              f"reflect the host, not the code")

    regressions = []
    # Width over the union: a freshly-added benchmark (present only in the
    # candidate, e.g. BM_ShardedScaling before its baseline lands) must not
    # break the table layout — or the lane.
    name_width = max((len(n) for n in set(base) | set(cand)), default=4)
    print(f"{'benchmark':<{name_width}}  {'baseline':>12}  {'candidate':>12}"
          f"  {'delta':>8}  {'band':>7}")
    for name in sorted(base):
        b = base[name]
        c = cand.get(name)
        if c is None:
            print(f"{name:<{name_width}}  {'(missing in candidate)':>12}")
            continue
        bt, ct = b["real_time"], c["real_time"]
        unit = b.get("time_unit", "ns")
        delta = (ct - bt) / bt * 100.0 if bt else 0.0
        cv = max(base_cv.get(name, 0.0), cand_cv.get(name, 0.0))
        band = max(args.threshold, CV_K * cv * 100.0)
        marker = ""
        if delta > band:
            marker = "  <-- REGRESSION"
            regressions.append((name, delta, band))
        elif delta < -band:
            marker = "  (faster)"
        print(f"{name:<{name_width}}  {bt:>10.0f}{unit}  {ct:>10.0f}{unit}"
              f"  {delta:>+7.1f}%  {band:>6.1f}%{marker}")
    # Candidate-only benchmarks are informational, never regressions: show
    # their timing so the first nightly after adding one still has numbers.
    for name in sorted(set(cand) - set(base)):
        c = cand[name]
        ct = c["real_time"]
        unit = c.get("time_unit", "ns")
        print(f"{name:<{name_width}}  {'(no baseline)':>14}  "
              f"{ct:>10.0f}{unit}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"max({args.threshold:.0f}%, {CV_K}·CV) "
              f"(report-only, not failing the job):")
        for name, delta, band in regressions:
            print(f"  {name}: {delta:+.1f}% (band {band:.1f}%)")
    else:
        print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
