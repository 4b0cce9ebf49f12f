#!/usr/bin/env python3
"""Build the IRTherm benchmark from source and run one workload.

    python3 irbench/run.py --workload dtm_replay --seed 1 --seconds 20 --trace 0

Run from the repository root. The library (../src) and the driver are
built with CMake into $CARGO_TARGET_DIR (default .bench_build) in
Release mode; later runs only rebuild what changed. The driver's
output is passed through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. See irbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dtm_replay", "package_transients", "sweep_batch")
BUILD_TIMEOUT_S = 850
# The driver stops its passes after --seconds; the first pass's oracle
# checks and the last pass's overrun come on top. A hung driver is
# killed well inside three minutes.
RUN_SLACK_S = 120
RUN_LIMIT_S = 170


def fail(msg):
    print(f"irbench: {msg}", file=sys.stderr)
    return 2


def source_digest():
    """sha256 over the library and benchmark sources (the checkout
    need not be a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "irbench_driver"])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "irbench_driver"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in [1, 60]")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no IRTherm sources under {ROOT / 'src'}")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or
                     ROOT / ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    try:
        driver = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        return fail(f"build failed: {e}")

    cmd = [str(driver), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(build_dir / "work"),
           "--commit", source_digest()]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=min(RUN_LIMIT_S, args.seconds + RUN_SLACK_S))
    except subprocess.TimeoutExpired:
        return fail("driver timed out")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (json.JSONDecodeError, IndexError, KeyError, TypeError):
        sys.stderr.write(proc.stdout)
        return fail(f"driver exited {proc.returncode} without a result")
    want = expected_metrics(args.trace)
    if want is not None and set(metrics) != want:
        sys.stderr.write(proc.stdout)
        return fail("driver metrics differ from BENCHMARK.json: "
                    f"{sorted(set(metrics) ^ want)}")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
