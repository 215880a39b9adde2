#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 --sets 2 --label 9210182 --out bench/baseline.json

Each set is one untraced run per workload and seed (end-to-end metrics:
median, quartiles and their distance as a share of the median; the host's
slowdown and the raw wall-clock time of each run); the sets run one after
another. ``agreement`` gives, per end-to-end metric, how much
worse each later set's median is than the first's, as a share of it, next
to the metric's bound in ``BENCHMARK.json``. One traced run per workload on
the first seed gives every per-layer metric. Runs are sequential, so
nothing else competes for the two cores the workloads are sized for.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402

#: which end-to-end metric each layer metric should move, and on which
#: workload; later changes cite these rows by layer metric name
LAYER_TABLE = [
    {"layer": "aeropower.induced_velocity.{calls,self_s,calls_per_point}, "
              "aeropower.rotor_power.calls",
     "moves": ["wall_s", "work_per_s"],
     "on": "terrain_map (about 63% of its time); closed_loop partly; "
           "not cli_cold"},
    {"layer": "steadystate.{rolling,flying}_equilibrium.{calls,self_s}, "
              "steadystate.infeasible_frac",
     "moves": ["wall_s", "work_per_s"], "on": "terrain_map"},
    {"layer": "rangeopt.{range_sweep,tradeoff_grid,scaling_bounds}.self_s, "
              "rangeopt.range_sweep.calls",
     "moves": ["wall_s", "peak_rss_mb"], "on": "terrain_map"},
    {"layer": "control.{allocate,pi_rate_control}.self_s, "
              "control.mixer_matrix.calls, control.saturated_frac",
     "moves": ["op_p50_ms", "work_per_s"],
     "on": "closed_loop; a small effect on terrain_map"},
    {"layer": "dynamics.{simulate_closed_loop,step_rolling,"
              "rolling_electrical_power}.self_s, "
              "dynamics.rolling_electrical_power.calls_per_tick",
     "moves": ["op_p50_ms", "work_per_s"], "on": "closed_loop"},
    {"layer": "params.{config_from_mapping,load_config}.self_s, cli.import_s, "
              "cli.main.self_s, cli.emit_bytes, thermal.sizing_table.self_s",
     "moves": ["op_p50_ms", "setup_s"],
     "on": "cli_cold; setup_s everywhere"},
]


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600,
        check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--label", default="", help="commit being measured")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    metric_spec = {m["name"]: m for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")
    record = {"label": args.label, "seconds": seconds, "seeds": seeds,
              "workloads": {}, "layer_metric_table": LAYER_TABLE}
    sets = {w: [] for w in names}     # per workload: (metrics, reports) per set
    for set_no in range(args.sets):
        for workload in names:
            metrics, reports = {}, []
            for seed in seeds:
                report, result = run_once(workload, seed, seconds, 0)
                reports.append(report)
                for name, m in result["metrics"].items():
                    metrics.setdefault(name, {"unit": m["unit"], "values": []})
                    metrics[name]["values"].append(m["value"])
                print(set_no, workload, seed, result["correct"],
                      result["failed"], {k: round(v["value"], 4) for k, v in
                                         result["metrics"].items()},
                      flush=True)
            sets[workload].append((metrics, reports))
    for workload in names:
        traced, _ = run_once(workload, seeds[0], seconds, 1)
        reports = [r for _, rs in sets[workload] for r in rs]
        end_to_end = [{k: {"unit": v["unit"], **summarize(v["values"])}
                       for k, v in metrics.items()}
                      for metrics, _ in sets[workload]]
        record["host"] = reports[0]["host"]
        record["workloads"][workload] = {
            "why": why.get(workload),
            "work_unit": reports[0]["work_unit"],
            "ops_per_run": reports[0]["ops"],
            "op_tail": reports[0]["op_tail"],
            "end_to_end": end_to_end,
            "agreement": {k: agreement(metric_spec[k],
                                       [s[k]["median"] for s in end_to_end])
                          for k in end_to_end[0]},
            # per set and seed: the host's median slowdown over the timed
            # phase, and the timed phase in wall-clock seconds
            "host_slowdown": [[r["host_slowdown"]["median"] for r in rs]
                              for _, rs in sets[workload]],
            "raw_wall_s": [[r["raw"]["wall_s"] for r in rs]
                           for _, rs in sets[workload]],
            "fail_frac": statistics.median(r["fail_frac"] for r in reports),
            "known_defect_frac": statistics.median(
                r["known_defect_ops"] / r["ops"] for r in reports),
            "unexpected_failures": sum(len(r["unexpected_failures"])
                                       for r in reports),
            "traced_seed": seeds[0],
            "per_layer": traced["per_layer"],
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for workload, w in record["workloads"].items():
        for name in w["end_to_end"][0]:
            spreads = " ".join(f"{s[name]['iqr_over_median']:.4f}"
                               for s in w["end_to_end"])
            print(f"{workload:12s} {name:12s} median "
                  f"{w['end_to_end'][0][name]['median']:.5g} "
                  f"iqr/median {spreads} worse by "
                  f"{w['agreement'][name]['worse_by']:+.4f}")
    return 0


def agreement(metric, medians):
    """How much worse the later sets' medians are than the first's."""
    first = medians[0]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worst = max((sign * (m - first) / first for m in medians[1:]),
                default=0.0)
    return {"medians": medians, "worse_by": worst, "bound": metric["bound"],
            "within_bound": worst <= metric["bound"]}


if __name__ == "__main__":
    sys.exit(main())
