#!/usr/bin/env python3
"""Builds and runs the segidx benchmark.

    python3 segbench/run.py --workload paper_search --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree. The first run configures and builds
the `segbench` binary (and the library layers it links) under
`.bench_build/segbench`; later runs only re-check the build. The binary runs
one workload, checks its results, prints a human-readable report on stderr,
and prints one JSON object as the last line of stdout. Scratch files (the
disk_ingest index file) go to `.bench_build/work` and are removed at exit;
a traced run leaves its span dump in `.bench_build/spans`.

Exit codes: 0 on success, 1 on a failed or incorrect run, 2 when the tree
cannot be built.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "segbench"
BUILD_DIR = ROOT / ".bench_build" / "segbench"
WORK_ROOT = ROOT / ".bench_build" / "work"
SPAN_DIR = ROOT / ".bench_build" / "spans"
BINARY = BUILD_DIR / "segbench"
WORKLOADS = ("paper_search", "disk_ingest", "serve_mixed")
# A run must end well inside three minutes once the build exists.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"segbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no segidx sources under {ROOT / 'src'}; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "segbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the result channel.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        spans = work / f"{args.workload}.spans.tsv"
        if spans.is_file():
            SPAN_DIR.mkdir(parents=True, exist_ok=True)
            kept = SPAN_DIR / f"{args.workload}-{args.seed}.spans.tsv"
            shutil.move(str(spans), str(kept))
            log(f"spans written to {kept}")
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"{args.workload} failed with exit code {proc.returncode}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
