#!/usr/bin/env python3
"""Build the toolchain benchmark (Release) and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from ../src) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls rebuild incrementally. Build output goes to stderr. The last
line of stdout is the benchmark's JSON result, after its metric names
and units have been checked against BENCHMARK.json. Traced runs write
their Chrome trace and layer table to <build dir>/out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure (once) and build; returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))

    def configure_and_build():
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                       stdout=sys.stderr, check=True)

    try:
        configure_and_build()
    except subprocess.CalledProcessError:
        # A stale cache (say, from a checkout at another path) is
        # rebuilt from scratch once; a second failure is real.
        if not (build_dir / "CMakeCache.txt").exists():
            raise
        shutil.rmtree(build_dir)
        configure_and_build()
    return build_dir / "perfbench"


def check_result(line, trace):
    """The result line must name exactly BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if not result["correct"]:
        return
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra or mis-unit %s" %
                         (sorted(set(want) - set(got)),
                          sorted(k for k in got if want.get(k) != got[k])))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(build_dir / "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("run.py: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    try:
        check_result(lines[-1], args.trace == 1)
    except (OSError, ValueError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
