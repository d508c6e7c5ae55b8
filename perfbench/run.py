#!/usr/bin/env python3
"""End-to-end qre_serve benchmark: build from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_warm --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt (Release) into .bench_build/cmake, builds
qre_serve and qre_perfbench (a no-op when up to date; build output goes to
stderr), and runs qre_perfbench, whose last stdout line is the result object.
Ledger files (Chrome trace, per-layer table) and the environment record go to
.bench_build/out. See perfbench/README.md.
"""
import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORKLOADS = ("sweep_warm", "sweep_cold", "mixed_small")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("run from the root of a qre checkout (CMakeLists.txt and src/ are missing)")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "qre_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter must not reach stdout: its last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    code = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [str(CMAKE_DIR / "qre_perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve", str(CMAKE_DIR / "qre" / "qre_serve"),
               "--out", str(BUILD / "out"), "--commit", git_commit()]
        code = code or subprocess.run(cmd).returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
