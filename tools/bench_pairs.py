#!/usr/bin/env python3
"""Runs segbench on two source trees in alternating pairs and compares them.

    python3 tools/bench_pairs.py --parent ../base --change . \\
        --workload paper_search --pairs 10 --first-seed 1 [--seconds 10] \\
        [--json BENCH_paper_search.json]

Pair i runs `python3 TREE/segbench/run.py --workload W --seed S+i
--seconds X --trace 0` once in each tree, both with the same seed. The
parent goes first in even pairs and the change in odd ones, so a drift in
host load falls on both sides alike. Each run's result is the JSON object
on the last line of its stdout.

For every end-to-end metric the parent's BENCHMARK.json declares, the
report gives each side's median and quartiles, the pairs the change won
and tied, and two verdicts:

  gain   the change won at least 9 of every 10 pairs (ties count for
         neither side) and the medians differ, in the better direction, by
         more than the parent's quartile spread;
  bound  the change's median is no worse than the parent's by more than
         the metric's bound (a fraction of the parent's median).

It also sums each side's failed and attempted operations. A run that
exits non-zero, or prints no result line, is reported and ends the tool
with exit 1, as does a failed share above the parent's. The optional JSON
file records both trees (git HEAD, and whether the tree has uncommitted
changes), the seeds, every run's values and the summary above.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def git_state(tree):
    """(HEAD sha or None, whether tracked or untracked files differ)."""
    try:
        head = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(tree), "status", "--porcelain"],
            capture_output=True, text=True, check=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return None, None
    # A tree exported without its own .git (git archive) would report the
    # enclosing repository's HEAD; only trust a checkout rooted at `tree`.
    top = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "--show-toplevel"],
        capture_output=True, text=True).stdout.strip()
    if pathlib.Path(top).resolve() != tree.resolve():
        return None, None
    return head, dirty


def run_once(tree, workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(tree / "segbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"run failed: {tree} seed {seed} (exit {proc.returncode})\n"
              f"{tail}", file=sys.stderr)
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def compare(metric, parent_vals, change_vals):
    lower = metric["better"] == "lower"
    wins = ties = 0
    for p, c in zip(parent_vals, change_vals):
        if p == c:
            ties += 1
        elif (c < p) == lower:
            wins += 1
    parent = summarize(parent_vals)
    change = summarize(change_vals)
    delta = change["median"] - parent["median"]
    improved = delta < 0 if lower else delta > 0
    spread = parent["q3"] - parent["q1"]
    pairs = len(parent_vals)
    gain = wins * 10 >= pairs * 9 and improved and abs(delta) > spread
    limit = parent["median"] * metric["bound"]
    worse_by = delta if lower else -delta
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": parent, "change": change,
            "wins": wins, "ties": ties, "pairs": pairs,
            "gain": gain, "within_bound": worse_by <= limit}


def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--first-seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--json", type=pathlib.Path)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "segbench" / "run.py").is_file():
            parser.error(f"--{side} {tree} has no segbench/run.py")
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())

    seeds = [args.first_seed + i for i in range(args.pairs)]
    results = {"parent": [], "change": []}
    broken = False
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], args.workload, seed, args.seconds)
            results[side].append(result)
            broken |= result is None
        line = "  ".join(
            f"{side} search_p50_us="
            f"{fmt(results[side][-1]['metrics']['search_p50_us']['value'])}"
            if results[side][-1] else f"{side} FAILED"
            for side in order)
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
              f"{line}", file=sys.stderr, flush=True)

    ops = {}
    for side in ("parent", "change"):
        ok = [r for r in results[side] if r is not None]
        ops[side] = {"runs_failed": len(results[side]) - len(ok),
                     "attempted": sum(r["attempted"] for r in ok),
                     "failed": sum(r["failed"] for r in ok)}

    # Pairs where either side failed carry no comparison.
    complete = [i for i in range(args.pairs)
                if results["parent"][i] and results["change"][i]]
    # A --trace 0 result line carries every end-to-end metric.
    metrics = {}
    for metric in spec["end_to_end"]:
        if not complete:
            break
        name = metric["name"]
        parent_vals, change_vals = (
            [results[side][i]["metrics"][name]["value"] for i in complete]
            for side in ("parent", "change"))
        metrics[name] = compare(metric, parent_vals, change_vals)

    print(f"\n{args.workload}: {len(complete)} complete pairs, "
          f"seeds {seeds[0]}-{seeds[-1]}, {args.seconds:g} s runs")
    print(f"{'metric':<18}{'unit':>6}{'parent med [q1, q3]':>30}"
          f"{'change med [q1, q3]':>30}{'wins':>6}{'ties':>6}"
          f"{'gain':>6}{'bound':>7}")
    for name, m in metrics.items():
        cells = []
        for side in ("parent", "change"):
            s = m[side]
            cells.append(f"{fmt(s['median'])} [{fmt(s['q1'])}, "
                         f"{fmt(s['q3'])}]")
        print(f"{name:<18}{m['unit']:>6}{cells[0]:>30}{cells[1]:>30}"
              f"{m['wins']:>6}{m['ties']:>6}{'yes' if m['gain'] else 'no':>6}"
              f"{'ok' if m['within_bound'] else 'WORSE':>7}")
    shares = {}
    for side in ("parent", "change"):
        o = ops[side]
        shares[side] = o["failed"] / o["attempted"] if o["attempted"] else 0
        print(f"{side}: failed/attempted {o['failed']}/{o['attempted']}, "
              f"runs failed {o['runs_failed']}")
    more_failures = shares["change"] > shares["parent"]
    if more_failures:
        print("change fails a larger share of operations than the parent")

    if args.json:
        trees_out = {}
        for side, tree in trees.items():
            head, dirty = git_state(tree)
            trees_out[side] = {"head": head, "dirty": dirty}
        out = {"workload": args.workload, "seconds": args.seconds,
               "pairs": args.pairs, "seeds": seeds, "trees": trees_out,
               "ops": ops, "metrics": metrics}
        args.json.write_text(json.dumps(out, indent=2) + "\n")
    return 1 if broken or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())
