#!/usr/bin/env python3
"""Build and run the pitk benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload paper_n6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which pulls in the
library from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero when the build
fails, the sources are missing, or the benchmark reports a failed check.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {' '.join(cmd)}: {e}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: the pitk sources (CMakeLists.txt, src/) are not in this checkout",
              file=sys.stderr)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                         BUILD_TIMEOUT_S):
            return None
    if not run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
                     BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def main(argv):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    try:
        proc = subprocess.run([binary] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
