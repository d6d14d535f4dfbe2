#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--small] [--inject-wrong-report]

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; traced runs write their spans there too.
Standard output ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
The line before it holds every metric the workload defines, with the run metadata.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["estimate-social-cold", "exact-road", "exact-road-weighted", "serve-mixed"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(directory):
    """Configures (once) and builds the Release binary; build output goes to stderr."""
    if not (directory / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(directory), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(directory), "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return directory / "perfbench"


def workload_why(name):
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    except (OSError, ValueError, KeyError):
        return "unknown (no BENCHMARK.json)"
    return next((w["why"] for w in declared if w["name"] == name), "unknown")


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--small", action="store_true",
                        help="short configuration with small inputs (the benchmark's tests)")
    parser.add_argument("--inject-wrong-report", action="store_true",
                        help="flip one value bit of one checked report (proves the gate fires)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src").is_dir():
        log(f"no library sources at {ROOT / 'src'}; run from the root of a full checkout")
        return 2
    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 3

    traces = directory / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", str(traces), "--git-sha", git_sha()]
    if args.small:
        command.append("--small")
    if args.inject_wrong_report:
        command.append("--inject-wrong-report")
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        log(f"run failed with exit code {done.returncode}")
        return 5
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 6
    report["meta"]["why"] = workload_why(args.workload)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
