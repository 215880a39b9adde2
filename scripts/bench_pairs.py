#!/usr/bin/env python3
"""Alternating parent/change pairs of ``bench/run.py`` runs, summarised.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workloads closed_loop terrain_map cli_cold --seeds 1-4,11-16 \\
        --claim closed_loop:op_tail_ms --out BENCH_<name>.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (say, from
``git archive``). For each workload and seed the script runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` once in
each checkout, the side that goes first alternating from one pair to the
next (the parent first on the first seed), and reads each run's result line.

Per workload and end-to-end metric of ``BENCHMARK.json`` (read from the
change's checkout) it writes each side's median and quartiles (linear
interpolation, as ``numpy.percentile``), the pairs the change won (ties
count for neither side) and whether the change's median is within the
metric's regression bound. A claimed metric holds when the change wins at
least 9 in 10 of at least 10 pairs and the medians differ, in the metric's
better direction, by more than the parent's interquartile range. Standard
library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: a claim needs this many pairs, and this share of them won
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics,
    as ``numpy.percentile``'s default."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """Whether value a is strictly better than b; ``direction`` is
    ``BENCHMARK.json``'s ``better``, "lower" or "higher"."""
    return a < b if direction == "lower" else a > b


def summarise(parent, change, direction, bound):
    """One metric's summary over paired runs: lists ``parent`` and
    ``change``, pair k being (parent[k], change[k])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need as many parent as change runs, at least one")
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    # the medians' difference, positive where the change is better
    gain = pm - cm if direction == "lower" else cm - pm
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "iqr": p3 - p1},
        "change": {"median": cm, "q1": c1, "q3": c3, "iqr": c3 - c1},
        "median_change_minus_parent": cm - pm,
        "relative": (cm - pm) / abs(pm),
        "change_better_pairs": wins,
        "pairs": len(parent),
        "bound": bound,
        "within_bound": -gain / abs(pm) <= bound,
        # a spread wider than the bound cannot tell a regression from
        # noise, unless every change run beats every parent run
        "unresolved": ((p3 - p1) / abs(pm) > bound
                       and not all(better(c, p, direction)
                                   for p in parent for c in change)),
        "claim_holds": (len(parent) >= MIN_PAIRS
                        and wins >= WIN_SHARE * len(parent)
                        and gain > p3 - p1),
    }


def parse_seeds(text):
    """'1-4,11-16' -> [1, 2, 3, 4, 11, ..., 16]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds):
    """The result line of one ``bench/run.py`` run in ``checkout``, its
    metrics flattened to values."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result.pop("metrics")
    return {**result, **{k: v["value"] for k, v in metrics.items()}}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    claims = [tuple(c.split(":", 1)) for c in args.claim]
    workloads = {}
    for workload in args.workloads:
        pairs = []
        for k, seed in enumerate(args.seeds):
            first = "parent" if k % 2 == 0 else "change"
            order = (first, "change" if first == "parent" else "parent")
            pair = {"seed": seed, "first": first}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed,
                                      args.seconds)
            print(workload, seed, *(f"{side} {pair[side]['wall_s']:.4f}"
                                    for side in order), file=sys.stderr)
            pairs.append(pair)
        summary = {
            name: summarise([p["parent"][name] for p in pairs],
                            [p["change"][name] for p in pairs],
                            m["better"], m["bound"])
            for name, m in metrics.items()}
        failed = {side: sum(p[side]["failed"] for p in pairs)
                  for side in ("parent", "change")}
        attempted = {side: sum(p[side]["attempted"] for p in pairs)
                     for side in ("parent", "change")}
        workloads[workload] = {"pairs": pairs, "summary": summary,
                               "failed_ops": failed,
                               "attempted_ops": attempted}

    def fail_share(w, side):
        return w["failed_ops"][side] / max(w["attempted_ops"][side], 1)

    report = {
        "command": ("python3 bench/run.py --workload <workload> --seed "
                    f"<seed> --seconds {args.seconds:g} --trace 0"),
        "order": ("each workload on the same seeds; the side that runs "
                  "first alternates from one pair to the next, the parent "
                  "first on the first seed"),
        "claim_rule": (f"the change wins at least {WIN_SHARE:.0%} of at "
                       f"least {MIN_PAIRS} pairs and the medians differ, in "
                       "the better direction, by more than the parent's "
                       "interquartile range"),
        "claims": [f"{w}:{m}" for w, m in claims],
        "host": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                 "python": platform.python_version(),
                 "platform": platform.platform()},
        "seeds": args.seeds,
        "workloads": workloads,
        "times": ("reference-host seconds (bench/hostspeed.py), as "
                  "bench/run.py reports them"),
        "claim_met": all(workloads[w]["summary"][m]["claim_holds"]
                         for w, m in claims),
        "bounds_held": all(s["within_bound"]
                           for w in workloads.values()
                           for s in w["summary"].values()),
        "fail_share_held": all(fail_share(w, "change")
                               <= fail_share(w, "parent")
                               for w in workloads.values()),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({k: report[k] for k in ("claim_met", "bounds_held",
                                             "fail_share_held")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
