#!/usr/bin/env python3
"""Build and run the lcaknap benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
`lcaknap_perfbench` from this checkout's sources into `.bench_build/perfbench`
(build output goes to stderr); later calls rebuild only what changed.  The
benchmark's own output, whose last line is the JSON result, goes to stdout,
and its exit code is passed through.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".perfbench_out"
BINARY = BUILD / "lcaknap_perfbench"
RUN_TIMEOUT_S = 170


def checkout_env() -> dict:
    """The environment for the build and the run: temporary files stay
    inside the checkout."""
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no lcaknap sources next to the benchmark "
                 f"(expected {ROOT / 'src'})")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=checkout_env())
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "lcaknap_perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, env=checkout_env())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out", str(OUT)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              env=checkout_env()).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
