#!/usr/bin/env python3
"""Build and run the BatteryLab benchmark.

Usage, from the repository root:

    python3 labbench/run.py --workload <campaign|fleet_dst|operator_reads> \
        --seed <n> --seconds <s> --trace <0|1> [--tiny] [--plant-failure]

Builds labbench/ (the platform libraries from src/ plus the benchmark) with
CMake in Release mode, under $CARGO_TARGET_DIR when it is set and under
.bench_build otherwise, then runs the benchmark binary once. Its last stdout
line is the JSON result; the exit code is its own (non-zero when an op
or a correctness check failed). Build output goes to stderr.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "labbench"


def build() -> pathlib.Path:
    """Configure (once) and build the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no BatteryLab sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def configure() -> int:
        return subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        ).returncode

    if not (out / "CMakeCache.txt").is_file() or configure() != 0:
        # A cache left by another checkout path cannot be reused.
        shutil.rmtree(out, ignore_errors=True)
        if configure() != 0:
            raise RuntimeError("cmake configure failed")
    rc = subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target",
         "labbench"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
    ).returncode
    if rc != 0:
        raise RuntimeError("build failed")
    return out / "labbench"


def run(binary: pathlib.Path, workload: str, seed: int, seconds: float,
        trace: int, extra=()) -> subprocess.CompletedProcess:
    """Run the benchmark once with captured output; scratch files stay under
    the build directory and are removed afterwards."""
    out = build_dir()
    work = out / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--digests", str(HERE / "digests.txt"),
           *extra]
    if trace:
        cmd += ["--spans-out",
                str(out / "spans" / f"{workload}-seed{seed}.tsv")]
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "fleet_dst", "operator_reads"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (small catalog, short captures)")
    parser.add_argument("--plant-failure", action="store_true",
                        help="plant one failure; the run must then fail")
    args = parser.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"labbench: {err}", file=sys.stderr)
        return 1
    extra = [flag for flag, on in (("--tiny", args.tiny),
                                   ("--plant-failure", args.plant_failure))
             if on]
    try:
        proc = run(binary, args.workload, args.seed, args.seconds, args.trace,
                   extra)
    except subprocess.TimeoutExpired:
        print("labbench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
