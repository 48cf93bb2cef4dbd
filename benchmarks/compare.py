"""Summarise or compare benchmark result files.

A result file holds one JSON line per run, as written by
``run.py --results FILE``. Make one per commit, for example

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 benchmarks/run.py --workload chat-p3 --seed $seed \\
            --seconds 20 --trace 0 --results parent.jsonl
    done

then, from the repository root:

    python3 benchmarks/compare.py parent.jsonl             # spread per metric
    python3 benchmarks/compare.py parent.jsonl change.jsonl

With one file it prints, per workload and metric, the run count, median,
quartiles and the spread (quartile distance over median) against the
metric's bound. With two it prints each side's median and quartiles,
the pairs the change wins, and a verdict: "better" when the change wins
at least nine tenths of the pairs (ties count for neither) and the
medians differ by more than the parent's quartile distance, "worse" by
the same rule the other way, else "unresolved". Runs pair up by seed.
The last column checks the change's median against the bound in
BENCHMARK.json; where the parent's own spread is wider than the bound
it reads "unresolved" unless every change run beats every parent run.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(path):
    """{(workload, trace): {seed: {metric: value}}} of the correct runs."""
    runs = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["result"]["correct"]:
                runs[(rec["workload"], rec["trace"])][rec["seed"]] = {
                    k: m["value"] for k, m in rec["result"]["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _gain(parent, change, better):
    """Positive when change is better than parent."""
    return change - parent if better == "higher" else parent - change


def verdict(parent, change, better):
    """Verdict on paired runs (parent[i] and change[i] share a seed)."""
    pairs = list(zip(parent, change))
    wins = sum(_gain(a, b, better) > 0 for a, b in pairs)
    losses = sum(_gain(a, b, better) < 0 for a, b in pairs)
    q1, q3 = quartiles(parent)
    diff = _gain(statistics.median(parent), statistics.median(change), better)
    if len(pairs) >= MIN_PAIRS:
        if wins >= WIN_SHARE * len(pairs) and diff > q3 - q1:
            return "better", wins
        if losses >= WIN_SHARE * len(pairs) and -diff > q3 - q1:
            return "worse", wins
    return "unresolved", wins


def bound_check(parent, change, better, bound):
    """Whether the change's median is worse than the parent's by more
    than bound, as a share of the parent's median."""
    med = statistics.median(parent)
    worse_by = -_gain(med, statistics.median(change), better) / abs(med) if med else 0.0
    all_better = min(_gain(a, b, better) for a in parent for b in change) > 0
    if spread(parent) > bound and not all_better:
        return "unresolved"
    return "exceeded" if worse_by > bound else "within"


def _fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent = load(args.parent)
    change = load(args.change) if args.change else None
    for key in sorted(parent):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        runs = parent[key]
        other = change.get(key, {}) if change is not None else {}
        seeds = sorted(set(runs) & set(other)) if change is not None else sorted(runs)
        if not seeds:
            print("   no runs to compare")
            continue
        for name in runs[seeds[0]]:
            meta = metrics[name]
            bound = meta.get("bound")
            a = [runs[s][name] for s in seeds]
            if change is None:
                flag = "" if bound is None else (
                    f"  bound {bound}: {'over' if spread(a) > bound else 'ok'}")
                print(f"   {name:42s} n={len(a)} {_fmt(a)} spread {spread(a):.4f}{flag}")
                continue
            b = [other[s][name] for s in seeds]
            result, wins = verdict(a, b, meta["better"])
            check = "" if bound is None else f"  bound {bound}: {bound_check(a, b, meta['better'], bound)}"
            print(f"   {name:42s} {_fmt(a)} -> {_fmt(b)}  wins {wins}/{len(seeds)}"
                  f"  {result}{check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
