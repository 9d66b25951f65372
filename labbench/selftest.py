#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Usage, from the repository root:

    python3 labbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark at --tiny size for
one second, with --trace 0 and with --trace 1, and checks that the run
passes, that the result line carries exactly the end-to-end (trace 0) or
per-layer (trace 1) metrics with the units BENCHMARK.json gives, that every
end-to-end value is positive, and that each metric and the error rate are
also printed by name with their unit. It then plants a failure in each
workload (a dropped capture, a REST error, an oracle finding) and checks
that the run exits non-zero with a raised error rate. Exits non-zero on the
first failed expectation.
"""
import json
import math
import pathlib
import re
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SECONDS = 1


def fail(msg: str) -> None:
    print(f"SELFTEST FAILED: {msg}")
    sys.exit(1)


def result_of(proc, what: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{what}: no output\n{proc.stderr[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what}: last line is not JSON: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail(f"{what}: attempted/failed must be whole numbers, attempted >= 1")
    return result


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    binary = bench.build()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = f"{workload} --trace {trace}"
            proc = bench.run(binary, workload, 1, SECONDS, trace, ["--tiny"])
            result = result_of(proc, what)
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                fail(f"{what}: exit {proc.returncode}, result {result}\n"
                     f"{proc.stderr[-2000:]}")
            metrics = result["metrics"]
            want = {d["name"]: d["unit"] for d in defs}
            if set(metrics) != set(want):
                fail(f"{what}: metrics differ from BENCHMARK.json: missing "
                     f"{sorted(set(want) - set(metrics))}, extra "
                     f"{sorted(set(metrics) - set(want))}")
            for name, unit in want.items():
                value = metrics[name]["value"]
                if metrics[name]["unit"] != unit:
                    fail(f"{what}: {name} has unit {metrics[name]['unit']}, "
                         f"expected {unit}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    fail(f"{what}: {name} = {value!r} is not a finite number")
                if trace == 0 and value <= 0:
                    fail(f"{what}: end-to-end metric {name} = {value} is not "
                         "positive")
                line = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}( |$)"
                if not re.search(line, proc.stdout, re.MULTILINE):
                    fail(f"{what}: {name} not printed by name with its unit")
            if "error_rate 0 ratio" not in proc.stdout:
                fail(f"{what}: error_rate not printed as 0")
            print(f"ok   {what}: {len(metrics)} metrics with units")

        proc = bench.run(binary, workload, 1, SECONDS, 0,
                         ["--tiny", "--plant-failure"])
        result = result_of(proc, f"{workload} planted failure")
        if proc.returncode == 0 or result["correct"] or result["failed"] < 1:
            fail(f"{workload}: planted failure did not fail the run "
                 f"(exit {proc.returncode}, result {result})")
        rate = result["failed"] / result["attempted"]
        print(f"ok   {workload} planted failure: exit {proc.returncode}, "
              f"error_rate {rate:.4g}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
