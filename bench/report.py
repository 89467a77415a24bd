"""Run every workload once, each in its own process, and print its metrics.

    python3 bench/report.py [--seed 1] [--seconds 30] [--trace]

Prints, per workload, each end-to-end metric by name with its unit, the
median pass time in seconds, the failure count against the attempts,
rank_over_bound where states were returned, and whether every output
passed the independent check.  With
--trace it also runs each workload traced twice, prints the per-layer
metrics that are not zero, and checks that the per-instance iteration, step
and map-call counts of the two traced runs are identical.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    all_ok = True
    for w in spec["workloads"]:
        name = w["name"]
        detail, result = _run(name, args.seed, args.seconds, 0)
        all_ok &= result["correct"]
        print(f"{name} (seed {args.seed}): correct={result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.4g} {m['unit']}")
        print(f"  wall_s = {detail['wall_s']:.4g} s (median pass, not normalised)")
        print(f"  fail_frac = {detail['fail_frac']:.3f} "
              f"({result['failed']} failed of {result['attempted']} attempted)")
        if detail["rank_over_bound"]:
            print(f"  rank_over_bound = {detail['rank_over_bound']:.4f} ratio")
        for err in detail["errors"]:
            print(f"  ERROR {err}")
        if not args.trace:
            continue
        (d1, r1), (d2, r2) = (_run(name, args.seed, args.seconds, 1)
                              for _ in range(2))
        same = d1["case_counts"] == d2["case_counts"]
        all_ok &= r1["correct"] and r2["correct"] and same
        print(f"  traced: correct={r1['correct']}/{r2['correct']}, "
              f"counts repeat across two traced runs: {same}")
        for metric, m in r1["metrics"].items():
            if m["value"]:
                print(f"    {metric} = {m['value']:.4g} {m['unit']}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
