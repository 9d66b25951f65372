#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root:

    python3 labbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                               [--workload NAME ...] [--json OUT]

Runs `labbench/run.py` --runs times per workload (default: every workload
in BENCHMARK.json), each with the next seed and --trace 0, and prints, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound. A spread above a third of the bound
is flagged. Exits non-zero if any run fails.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="end-to-end metric spread")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="write every run's metrics here")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    record = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit "
                      f"{proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.5g}" for n in bounds), flush=True)
        record[workload] = values
        for name, bound in bounds.items():
            v = values[name]
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bound / 3 else \
                ("  <-- above bound/3" if spread <= bound else "  <-- ABOVE BOUND")
            print(f"  {workload:15s} {name:12s} median {med:12.6g}  spread "
                  f"{spread:7.4f}  bound {bound:.3f}{flag}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
