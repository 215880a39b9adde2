"""Command-line front end emitting plot-ready CSV / JSON artifacts.

    mobilitylab <subcommand> [--config FILE] [--set key=value]...
                             [--out PATH] [--format csv|json]

Subcommands: range-sweep, power-curve, tradeoff-map, scaling, simulate,
thermal. Exit status 2 flags argument/configuration errors, 1 an infeasible
analysis; outputs are deterministic (byte-identical across runs).

Each subcommand imports the analysis modules it uses only after its
arguments and config have been checked, so an argument error, and a
``thermal`` call, never load numpy; only JSON input or output loads json.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable

from .params import (DT_MAX, EARTH, AnalysisError, ConfigError,
                     ScenarioConfig, ValidationError, config_from_mapping,
                     parse_document)

#: default thickness sweep for the thermal table, m; equal bit for bit to
#: np.linspace(0.005, 0.05, 46), whose step and endpoint it repeats
THERMAL_THICKNESS_GRID = ([0.005 + i * ((0.05 - 0.005) / 45)
                           for i in range(45)] + [0.05])


def _write(text: str, path: str | None) -> int:
    """Write text as UTF-8 to ``path``, or to stdout for ``path=None``.

    Returns the number of bytes written.
    """
    data = text.encode("utf-8")
    if path is None:
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)
    return len(data)


def emit_csv(header: list[str], rows: Iterable, path: str | None) -> int:
    """Write a table as UTF-8 CSV with LF endings and %.9g cells.

    Returns the number of bytes written; ``path=None`` writes to stdout.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{cell:.9g}" for cell in row))
    return _write("\n".join(lines) + "\n", path)


def _build_config(args: argparse.Namespace) -> ScenarioConfig:
    """Layer the preset, then the config file's keys, then each --set."""
    values: dict = {}
    if args.env == "earth":
        values.update(EARTH)
    path = args.config or os.environ.get("MOBILITYLAB_CONFIG")
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                values.update(parse_document(fh.read()))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not UTF-8 text: "
                              f"{exc}") from exc
    for item in args.set or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        values[key.strip()] = val.strip()
    return config_from_mapping(values)


def _cmd_range_sweep(args, config) -> tuple[list[str], list, dict]:
    from . import rangeopt
    curve = rangeopt.range_sweep(config, args.mode, hotel_w=args.hotel_w,
                                 refine=args.refine)
    rows = [[v, p, r] for v, p, r in zip(curve.velocity, curve.power,
                                         curve.range_km)
            if math.isfinite(p)]
    summary = {"mode": curve.mode, "optimum_v_mps": curve.optimum_v,
               "optimum_range_km": curve.optimum_range_km}
    return ["v_mps", "power_w", "range_km"], rows, summary


def _cmd_power_curve(args, config) -> tuple[list[str], list, dict]:
    import numpy as np
    from . import rangeopt
    curve = rangeopt.range_sweep(config, args.mode, hotel_w=args.hotel_w)
    rows = [[v, p] for v, p in zip(curve.velocity, curve.power)
            if math.isfinite(p)]
    i = int(np.nanargmin(curve.power))
    summary = {"mode": curve.mode,
               "min_power_w": float(curve.power[i]),
               "min_power_v_mps": float(curve.velocity[i])}
    return ["v_mps", "power_w"], rows, summary


def _cmd_tradeoff_map(args, config) -> tuple[list[str], list, dict]:
    import numpy as np
    from . import rangeopt
    grid = rangeopt.tradeoff_grid(
        config, crr_range=(args.crr_min, args.crr_max),
        theta_range_deg=(args.theta_min_deg, args.theta_max_deg),
        resolution=args.resolution)
    if np.isnan(grid.flying_range_km).all():
        raise rangeopt.AllInfeasibleError(
            "tradeoff map: flying is infeasible at every grid point")
    rows = []
    for i, crr in enumerate(grid.crr):
        for j, th in enumerate(grid.theta_deg):
            rows.append([crr, th, grid.delta_range_km[i, j],
                         grid.flying_range_km[i, j]])
    # crossover boundary: per C_rr, first slope where flying overtakes
    boundary = []
    for i, crr in enumerate(grid.crr):
        for j, th in enumerate(grid.theta_deg):
            d = grid.delta_range_km[i, j]
            if math.isfinite(d) and d < 0:
                boundary.append([float(crr), float(th)])
                break
    summary = {"crossover_boundary_crr_thetadeg": boundary,
               "flying_range_km_min": float(np.nanmin(grid.flying_range_km)),
               "flying_range_km_max": float(np.nanmax(grid.flying_range_km))}
    return ["crr", "theta_deg", "delta_km", "fly_km"], rows, summary


def _cmd_scaling(args, config) -> tuple[list[str], list, dict]:
    from . import rangeopt
    curve = rangeopt.scaling_bounds(config,
                                    range(args.n_min, args.n_max + 1))
    rows = [[float(n), lo, up] for n, lo, up in
            zip(curve.n, curve.ratio_lower, curve.ratio_upper)]
    summary = {"n": [int(n) for n in curve.n],
               "ratio_lower": list(map(float, curve.ratio_lower)),
               "ratio_upper": list(map(float, curve.ratio_upper))}
    return ["n", "ratio_lower", "ratio_upper"], rows, summary


def _cmd_simulate(args, config) -> tuple[list[str], Iterable, dict]:
    from . import dynamics
    traj = dynamics.simulate_closed_loop(config, args.omega_des,
                                         args.duration, args.dt,
                                         record_every=args.record_every)
    final = traj.states[-1]
    summary = {"final_time_s": final.time,
               "final_speed_mps": final.speed_v,
               "final_omega_radps": final.roll_rate_omega,
               "energy_consumed_j": final.energy_consumed,
               "saturated_any": bool(any(traj.saturated))}
    # Python floats a row at a time: %.9g prints 0.0 / 1.0 as 0 / 1
    return (dynamics.CSV_HEADER,
            (row.tolist() for row in traj.to_csv_rows()), summary)


def _cmd_thermal(args, config) -> tuple[list[str], list, dict]:
    from . import thermal
    summary: dict = {"ambient_temp_c": float(config.ambient_temperature)}
    if args.budget_w is not None:
        t = thermal.thickness_for_budget(args.budget_w, config)
        thicknesses = [t]
        summary["budget_w"] = args.budget_w
        summary["thickness_m"] = t
    elif args.thickness_m is not None:
        thicknesses = [args.thickness_m]
    else:
        thicknesses = THERMAL_THICKNESS_GRID
    rows = thermal.sizing_table(config, thicknesses)
    summary["rows"] = len(rows)
    return ["thickness_m", "loss_w", "heater_w", "mass_kg"], rows, summary


_COMMANDS = {
    "range-sweep": _cmd_range_sweep,
    "power-curve": _cmd_power_curve,
    "tradeoff-map": _cmd_tradeoff_map,
    "scaling": _cmd_scaling,
    "simulate": _cmd_simulate,
    "thermal": _cmd_thermal,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobilitylab",
        description="Energy and mobility analysis for a hybrid "
                    "flying/rolling multirotor platform.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file "
                       "(key=value lines or JSON); falls back to "
                       "$MOBILITYLAB_CONFIG")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single config field")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--env", choices=("titan", "earth"), default="titan",
                       help="environment preset")

    for name in ("range-sweep", "power-curve"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--mode", choices=("rolling", "flying"),
                       required=True)
        p.add_argument("--hotel-w", type=float, default=0.0,
                       help="constant non-propulsive load added to total "
                            "power, W")
        if name == "range-sweep":
            p.add_argument("--refine", action="store_true",
                           help="refine the optimum on a fine grid over "
                                "its coarse grid neighbours")

    p = sub.add_parser("tradeoff-map")
    common(p)
    p.add_argument("--crr-min", type=float, default=0.01)
    p.add_argument("--crr-max", type=float, default=0.2)
    p.add_argument("--theta-min-deg", type=float, default=-0.5)
    p.add_argument("--theta-max-deg", type=float, default=2.0)
    p.add_argument("--resolution", type=int, default=20)

    p = sub.add_parser("scaling")
    common(p)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=12)

    p = sub.add_parser("simulate")
    common(p)
    p.add_argument("--omega-des", type=float, default=1.0,
                   help="desired roll rate, rad/s")
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--record-every", type=int, default=1)

    p = sub.add_parser("thermal")
    common(p)
    choice = p.add_mutually_exclusive_group()
    choice.add_argument("--budget-w", type=float,
                        help="heater budget; solve for the thickness")
    choice.add_argument("--thickness-m", type=float,
                        help="evaluate a single insulation thickness")
    return parser


_NON_NEGATIVE = (lambda x: 0.0 <= x < math.inf, "finite and >= 0")
_POSITIVE = (lambda x: 0.0 < x < math.inf, "finite and > 0")
_SLOPE_DEG = (lambda x: abs(x) < 90.0, "in (-90, 90)")
_COUNT = (lambda n: n >= 1, ">= 1")

#: the domain of each numeric flag, by dest: (test, what the value must be)
_DOMAINS = {
    "hotel_w": _NON_NEGATIVE,
    "crr_min": _NON_NEGATIVE,
    "crr_max": _NON_NEGATIVE,
    "theta_min_deg": _SLOPE_DEG,
    "theta_max_deg": _SLOPE_DEG,
    "resolution": _COUNT,
    "n_min": _COUNT,
    "omega_des": (math.isfinite, "finite"),
    "duration": _POSITIVE,
    "dt": (lambda x: 0.0 < x <= DT_MAX, f"in (0, {DT_MAX}]"),
    "record_every": _COUNT,
    "budget_w": _POSITIVE,
    "thickness_m": _POSITIVE,
}


def _argument_error(args: argparse.Namespace) -> str | None:
    """The message for a numeric argument outside its domain, else None."""
    for dest, (ok, domain) in _DOMAINS.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            return (f"--{dest.replace('_', '-')} must be {domain} "
                    f"(got {value!r})")
    for low, high in (("n_min", "n_max"), ("crr_min", "crr_max"),
                      ("theta_min_deg", "theta_max_deg")):
        lo, hi = getattr(args, low, None), getattr(args, high, None)
        if lo is not None and hi < lo:
            return (f"--{high.replace('_', '-')} must be >= "
                    f"--{low.replace('_', '-')} (got {hi} < {lo})")
    if args.subcommand == "simulate" and args.duration / args.dt < math.inf \
            and round(args.duration / args.dt) < args.record_every:
        return (f"--duration / --dt gives fewer than --record-every "
                f"{args.record_every} steps: nothing after t = 0 is recorded")
    return None


def _json_safe(value):
    """``value`` with each non-finite float as None, which JSON writes as
    null (``json.dumps`` would write the non-standard NaN / Infinity)."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    message = _argument_error(args)
    if message:
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        config = _build_config(args)
    except (ConfigError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        header, rows, summary = _COMMANDS[args.subcommand](args, config)
    except (AnalysisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: float overflow, an input is too large: {exc}",
              file=sys.stderr)
        return 1
    try:
        if args.format == "csv":
            emit_csv(header, rows, args.out)
        else:
            import json  # only a JSON summary pays for the import
            _write(json.dumps(_json_safe(summary), indent=2, sort_keys=True)
                   + "\n", args.out)
    except OSError as exc:
        if args.out is None:  # stdout itself failed, such as a closed pipe
            raise
        print(f"error: --out {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
