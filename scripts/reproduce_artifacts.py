#!/usr/bin/env python3
"""Regenerate every artifact in artifacts/, one ``mobilitylab`` call per
``JOBS`` entry, then print the insulation thickness for a few heater
budgets and the closed loop's steady-tail power (read back from its CSV)
against the steady-state solver.

    python3 scripts/reproduce_artifacts.py
"""

import csv
import pathlib
import statistics

from mobilitylab import cli, steadystate, thermal
from mobilitylab.params import ScenarioConfig

OUT = pathlib.Path(__file__).resolve().parent.parent / "artifacts"

#: closed-loop roll-rate setpoint, rad/s
OMEGA_DES = 0.6

#: (mobilitylab arguments, artifact file name)
JOBS = [
    (["range-sweep", "--mode", "rolling"], "range_rolling_titan.csv"),
    (["range-sweep", "--mode", "flying"], "range_flying_titan.csv"),
    (["range-sweep", "--mode", "rolling", "--format", "json"],
     "range_rolling_titan.json"),
    (["range-sweep", "--mode", "flying", "--format", "json"],
     "range_flying_titan.json"),
    (["power-curve", "--mode", "flying"], "power_flying_titan.csv"),
    (["power-curve", "--mode", "flying", "--env", "earth"],
     "power_flying_earth.csv"),
    (["tradeoff-map", "--resolution", "20"], "tradeoff_map.csv"),
    (["tradeoff-map", "--resolution", "20", "--format", "json"],
     "tradeoff_summary.json"),
    (["scaling", "--n-min", "1", "--n-max", "12"], "scaling_bounds.csv"),
    (["thermal"], "thermal_sizing.csv"),
    (["simulate", "--omega-des", str(OMEGA_DES), "--duration", "60",
      "--dt", "0.01", "--record-every", "10"], "closed_loop_rolling.csv"),
]


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for argv, name in JOBS:
        path = OUT / name
        status = cli.main(argv + ["--out", str(path)])
        if status != 0:
            raise SystemExit(f"{name}: exit {status}")
        print(f"wrote {path}")

    cfg = ScenarioConfig()  # Titan
    for budget in (2.0, 5.68, 10.42):
        t = thermal.thickness_for_budget(budget, cfg)
        print(f"heater budget {budget:5.2f} W -> thickness {t * 1e3:.1f} mm")

    rows = csv.DictReader((OUT / "closed_loop_rolling.csv").read_text(
        encoding="utf-8").splitlines())
    power = [float(row["power_w"]) for row in rows]
    tail = statistics.fmean(power[len(power) // 2:])
    v = OMEGA_DES * cfg.shell_radius_l
    ss = steadystate.rolling_state(cfg, v).power
    print(f"mean steady-tail power: {tail:.4f} W")
    print(f"steady-state solver at v={v} m/s: {ss:.4f} W")
    print(f"relative difference: {abs(tail - ss) / ss * 100:.2f}%")


if __name__ == "__main__":
    main()
