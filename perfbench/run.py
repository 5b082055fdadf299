#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload timeline_te --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the library
from the repository's sources) under $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. Each run executes in a
fresh, empty directory under the build tree, so no file a run leaves behind
can carry work into the next. The last line of standard output is the
benchmark's JSON result, checked against BENCHMARK.json before it is
printed; build logs and the human-readable report go to standard error.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(command, **kwargs):
    """Runs a build step with its output on stderr; fails on error."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            **kwargs)
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(command)}")


def build(build_dir, target):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing next to perfbench/: the benchmark "
                 "builds the library from the repository's sources")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_logged(["cmake", "--build", build_dir, "--target", target,
                "--parallel", BUILD_JOBS])
    return os.path.join(build_dir, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in manifest[key]}


def validate(line, trace):
    """The result line must carry exactly the manifest's metrics."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected_metrics(trace):
        raise ValueError("printed metrics differ from BENCHMARK.json")


def run_benchmark(args, build_dir):
    binary = build(build_dir, "cisp_perfbench")
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(command, cwd=workdir, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:  # interrupted: stop the child first
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    try:
        validate(lines[-1], args.trace)
    except (ValueError, KeyError) as error:
        fail(f"invalid result line: {error}")
    print(lines[-1], flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # SIGTERM unwinds like Ctrl-C, so the child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.selftest:
        tests = build(build_dir, "perfbench_test")
        sys.exit(subprocess.run([tests]).returncode)
    if not args.workload:
        fail("--workload is required")
    run_benchmark(args, build_dir)


if __name__ == "__main__":
    main()
