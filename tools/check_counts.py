#!/usr/bin/env python3
"""Checks segbench's exact, untimed counts against committed expectations.

    python3 tools/check_counts.py

Run it from anywhere inside a source tree. For each run listed in
tools/expected_counts.json it calls `segbench/run.py --workload W --seed 1
--seconds S --trace T` (paper_search and disk_ingest traced, and
disk_ingest untraced for its bytes_per_record), reads the JSON result line
and compares every listed metric with its expected value. It exits 1 on any
difference, on a listed metric the result line lacks, or on a failed run,
and prints both values of each difference.

Only values that involve no clock are listed: page and node counts per
operation, hit and distinct ratios, split, cut and coalescing counts, write
amplification and bytes per record. Each repeated exactly over three runs
when the file was written. Timed values (`*_us*`, `*_s`, `tail.*`,
`trace.*`, `loadgen.*`) and values that did not repeat are left out. So a
difference means the index built, stored or searched something different,
not that the host was busy. Wall-clock claims still need alternating pairs
(tools/bench_pairs.py).

Two caveats:
  * segbench generates its data with the C++ standard library and libm, so
    another compiler or libm can change the data and with it every count.
    The file names the toolchain that produced it.
  * disk_ingest counts its first 16 384 streamed inserts, so its runs last
    5 s rather than 1 s: a busy 4-vCPU host streamed only 15 952 in one
    second, and a shorter window changes the counts. When that happens,
    segbench notes "only N inserts streamed" on stderr.

After a change that is meant to move a count, check the printed values and
update the file, in the same change.
"""

import json
import pathlib
import sys

from bench_pairs import run_once

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tools" / "expected_counts.json"


def main():
    spec = json.loads(EXPECTED.read_text())
    failures = 0
    checked = 0
    for run in spec["runs"]:
        label = f"{run['workload']} --trace {run['trace']}"
        result = run_once(ROOT, run["workload"], spec["seed"],
                          run["seconds"], run["trace"])
        if result is None:  # run_once printed why.
            failures += 1
            continue
        diffs = []
        for name, want in run["metrics"].items():
            checked += 1
            got = result["metrics"].get(name, {}).get("value")
            if got is None:
                diffs.append(f"  {name}: expected {want!r}, missing")
            elif got != want:
                diffs.append(f"  {name}: expected {want!r}, got {got!r}")
        if diffs:
            failures += len(diffs)
            print(f"FAIL {label}:\n" + "\n".join(diffs), file=sys.stderr)
        else:
            print(f"ok   {label}: {len(run['metrics'])} counts match")
    if failures:
        print(f"{failures} differences; expectations recorded with "
              f"{spec['toolchain']}", file=sys.stderr)
        return 1
    print(f"all {checked} counts match {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
