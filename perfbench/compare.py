#!/usr/bin/env python3
"""Compares two sets of perfbench result files.

    python3 perfbench/compare.py [--paired] BASE_DIR NEW_DIR

Each directory holds the `<workload>.seed<n>.trace0.json` files that
perfbench/run.py leaves in .bench_build/results (copy them aside between
the two commits, or run from two checkouts). For every workload and
end-to-end metric the script prints each side's median and quartiles and
flags a median that is worse than the base by more than the metric's bound
in BENCHMARK.json.

With --paired, runs are matched by workload and seed, and the verdict is
the median of the per-pair ratios new/base. Run the two commits alternately
with the same seeds (base seed 1, new seed 1, base seed 2, ...): both runs
of a pair then see the same inputs and nearly the same host, so a drift of
the host's speed over minutes cancels out of each ratio.

It refuses (exit 3) to compare results recorded on different hosts, or
with different build types or compilers: a number from another machine is
not a baseline. Exit 1 when a metric regressed beyond its bound, else 0.
"""

import json
import pathlib
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "simd", "build_type", "compiler")


def load(directory):
    runs = []
    for path in sorted(pathlib.Path(directory).glob("*.trace0.json")):
        run = json.loads(path.read_text())
        if run["result"]["correct"]:
            runs.append(run)
        else:
            print(f"compare: skipping {path}: not correct", file=sys.stderr)
    if not runs:
        sys.exit(f"compare: no *.trace0.json results in {directory}")
    return runs


def host_of(runs, directory):
    hosts = {tuple(run["host"][k] for k in HOST_KEYS) for run in runs}
    if len(hosts) != 1:
        print(f"compare: {directory} mixes results from several hosts",
              file=sys.stderr)
        sys.exit(3)
    return hosts.pop()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, change):
    worse = change if metric["better"] == "lower" else -change
    return "REGRESSED" if worse > metric["bound"] else "ok"


def compare_medians(metric, workload, values):
    b1, b2, b3 = quartiles(values[0])
    n1, n2, n3 = quartiles(values[1])
    change = (n2 - b2) / b2 if b2 else 0.0
    flag = verdict(metric, change)
    print(f"{workload:16} {metric['name']:12} base {b2:10.4g}"
          f" [{b1:.4g}, {b3:.4g}] n={len(values[0])}"
          f"  new {n2:10.4g} [{n1:.4g}, {n3:.4g}]"
          f" n={len(values[1])}  {100 * change:+6.1f}%"
          f" (bound {100 * metric['bound']:.0f}%) {flag}")
    return flag


def compare_pairs(metric, workload, pairs):
    ratios = [new / base for base, new in pairs if base]
    if not ratios:
        return "ok"
    r1, r2, r3 = quartiles(ratios)
    flag = verdict(metric, r2 - 1.0)
    better = (lambda r: r < 1.0) if metric["better"] == "lower" else (
        lambda r: r > 1.0)
    wins = sum(1 for r in ratios if better(r))
    print(f"{workload:16} {metric['name']:12} new/base per pair"
          f" {r2:.4f} [{r1:.4f}, {r3:.4f}] new better in"
          f" {wins}/{len(ratios)}"
          f"  {100 * (r2 - 1.0):+6.1f}%"
          f" (bound {100 * metric['bound']:.0f}%) {flag}")
    return flag


def main():
    args = sys.argv[1:]
    paired = "--paired" in args
    if paired:
        args.remove("--paired")
    if len(args) != 2:
        sys.exit(__doc__)
    spec = json.loads(
        (pathlib.Path(__file__).resolve().parent.parent /
         "BENCHMARK.json").read_text())
    base, new = load(args[0]), load(args[1])
    base_host, new_host = host_of(base, args[0]), host_of(new, args[1])
    if base_host != new_host:
        print("compare: refusing to compare results from different hosts",
              file=sys.stderr)
        for key, a, b in zip(HOST_KEYS, base_host, new_host):
            if a != b:
                print(f"  {key}: {a!r} vs {b!r}", file=sys.stderr)
        sys.exit(3)

    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        sides = [{r["seed"]: r for r in runs if r["workload"] == workload}
                 for runs in (base, new)]
        if paired:
            seeds = sorted(set(sides[0]) & set(sides[1]))
            sides = [[side[s] for s in seeds] for side in sides]
        else:
            sides = [list(side.values()) for side in sides]
        if not sides[0] or not sides[1]:
            continue
        # CPU steal is the main source of spread on a shared virtual host.
        steal = [statistics.median(r["details"].get("host_steal_pct", 0.0)
                                   for r in side) for side in sides]
        print(f"{workload:16} host steal: base {steal[0]:.1f}%"
              f"  new {steal[1]:.1f}%")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[r["result"]["metrics"][name]["value"] for r in side]
                      for side in sides]
            if paired:
                flag = compare_pairs(metric, workload, zip(*values))
            else:
                flag = compare_medians(metric, workload, values)
            regressed = regressed or flag != "ok"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
