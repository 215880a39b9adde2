"""Range sweeps, terrain trade-off grid and multi-agent scaling bounds.

Range is defined as v * E / P: distance covered before the usable battery
energy is exhausted at constant speed. One private sweep owns the optimum:
the grid argmax, NaN where no speed is feasible, one array call per block.
``best_range`` broadcasts it over config arrays; ``range_sweep`` optionally
refines one scenario's optimum by re-sweeping the argmax's bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import steadystate
from .params import AnalysisError, ScenarioConfig

#: default velocity grids, m/s
ROLLING_V_GRID = (0.01, 2.0, 200)
FLYING_V_GRID = (0.05, 5.0, 200)
#: points of the refinement grid; odd, so a uniform grid's coarse optimum
#: sits in its middle
REFINE_POINTS = 1001
#: points per ``_powers`` call of a batch (bounds the peak memory)
BLOCK_POINTS = 2 ** 14

#: circumradius / edge length of the platonic solids, keyed by face count
PLATONIC_CIRCUMRADIUS_PER_EDGE = {
    4: math.sqrt(3.0 / 8.0),
    6: math.sqrt(3.0) / 2.0,
    8: math.sqrt(2.0) / 2.0,
    12: (math.sqrt(3.0) / 4.0) * (1.0 + math.sqrt(5.0)),
}


class AllInfeasibleError(AnalysisError):
    """Every point of a sweep exceeded the rotor thrust limit."""


@dataclass(frozen=True)
class RangeCurve:
    mode: str                 # "rolling" | "flying"
    velocity: np.ndarray      # m/s
    power: np.ndarray         # W, NaN where infeasible
    range_km: np.ndarray      # km, NaN where infeasible
    optimum_v: float
    optimum_range_km: float


@dataclass(frozen=True)
class TradeoffGrid:
    crr: np.ndarray           # axis, rolling resistance coefficient
    theta_deg: np.ndarray     # axis, slope in degrees
    delta_range_km: np.ndarray  # [i_crr, j_theta], rolling minus flying
    flying_range_km: np.ndarray


@dataclass(frozen=True)
class ScalingCurve:
    n: np.ndarray
    ratio_lower: np.ndarray   # rolling/flying range, worst-case geometry
    ratio_upper: np.ndarray   # rolling/flying range, best-case geometry


def _read_only_grid(lo: float, hi: float, num: int) -> np.ndarray:
    grid = np.linspace(lo, hi, num)
    grid.flags.writeable = False
    return grid


_ROLLING_SPEEDS = _read_only_grid(*ROLLING_V_GRID)
_FLYING_SPEEDS = _read_only_grid(*FLYING_V_GRID)


def default_velocity_grid(mode: str) -> np.ndarray:
    """The mode's default speed grid, one shared read-only array."""
    return _ROLLING_SPEEDS if mode == "rolling" else _FLYING_SPEEDS


def _powers(config: ScenarioConfig, mode: str, v, shell=None):
    """Total electrical power at speed(s) v; NaN where infeasible.

    A rolling ``shell`` is ``steadystate.rolling_state``'s: the docked
    cylinder by default, and n agents' shell on 2 n pairs in
    ``scaling_bounds``. Mass and energy scale with ``num_agents`` in both.
    """
    if mode == "rolling":
        return steadystate.rolling_state(config, v, shell).power
    if mode == "flying":
        return steadystate.flying_state(config, v).power
    raise ValueError(f"mode must be 'rolling' or 'flying', got {mode!r}")


def _ranges(v, powers, energy: float):
    """Range in km at each speed; NaN where the power is NaN or not > 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ranges = np.where(np.isfinite(powers) & (powers > 0),
                          v * energy / powers * 1e-3, np.nan)
    if np.isinf(ranges).any():
        raise OverflowError("range v * E / P is beyond float range")
    return ranges


def _sweep(config: ScenarioConfig, mode: str, v, hotel_w: float = 0.0,
           shell=None):
    """Powers, ranges and optimum (v*, R*) over the 1-D speed axis v, for
    the batch that v, ``hotel_w``, ``shell`` and array config fields
    broadcast to: the first largest finite range on the last axis, NaN if
    none. A batch past ``BLOCK_POINTS`` points runs in blocks of
    leading-axis rows (as many as fit, at least one) and keeps only its
    optima (powers, ranges None); if the first block's ranges do not carry
    that axis (only fields the mode never reads vary along it), its optima
    stand for every row. A negative or non-finite ``hotel_w`` raises."""
    if not np.all(np.isfinite(hotel_w) & (np.asarray(hotel_w) >= 0)):
        raise ValueError(f"hotel_w must be finite and >= 0 (got {hotel_w!r})")
    shape = np.broadcast(v, hotel_w, *(
        x for x in (*vars(config).values(), *(shell or ()))
        if isinstance(x, np.ndarray))).shape
    rows = max(1, BLOCK_POINTS // (math.prod(shape[1:]) or 1))
    if len(shape) > 1 and shape[0] > rows:
        opt = np.empty((2, *shape[:-1]))
        for i in range(0, shape[0], rows):
            def cut(x):
                return (x[i:i + rows] if np.ndim(x) == len(shape)
                        and len(x) > 1 else x)
            _, ranges, *opt[:, i:i + rows] = _sweep(replace(config, **{
                k: cut(x) for k, x in vars(config).items()}), mode, v,
                cut(hotel_w), shell and tuple(map(cut, shell)))
            if i == 0 and (ranges.ndim < len(shape) or len(ranges) < rows):
                opt[:] = opt[:, :1]
                break
        return None, None, *opt
    powers = _powers(config, mode, v, shell) + hotel_w
    ranges = _ranges(v, powers, config.total_energy)
    opt_r = np.fmax.reduce(ranges, axis=-1)
    i = np.argmax(ranges == opt_r[..., None], axis=-1)  # first optimum
    return powers, ranges, *(  # a 0-d optimum as a numpy scalar
        x[()] if x.shape == shape[:-1] else
        np.broadcast_to(x, shape[:-1]).copy()
        for x in (np.where(np.isnan(opt_r), np.nan, v[i]), opt_r))


def best_range(config: ScenarioConfig, mode: str, hotel_w: float = 0.0):
    """Optimum (v*, R*) over the mode's default speed grid. Array-valued
    config fields and ``hotel_w`` broadcast against a trailing speed axis
    (shape them (..., 1)), the fields the mode ignores too; infeasible
    elements give (NaN, NaN)."""
    return _sweep(config, mode, default_velocity_grid(mode), hotel_w)[2:]


def range_sweep(config: ScenarioConfig, mode: str, hotel_w: float = 0.0,
                refine: bool = False) -> RangeCurve:
    """Equilibrium power and range over the mode's default velocity grid,
    with optimum. ``refine`` takes the optimum from a re-sweep of
    ``REFINE_POINTS`` speeds between the grid argmax's neighbours; the
    curve stays the grid's."""
    speeds = default_velocity_grid(mode)
    powers, ranges, opt_v, opt_r = _sweep(config, mode, speeds, hotel_w)
    if np.isnan(opt_r):
        raise AllInfeasibleError(
            f"{mode} sweep: every grid point is infeasible")
    if refine:
        i = int(np.nanargmax(ranges))
        opt_v, opt_r = _sweep(config, mode, np.linspace(
            speeds[max(i - 1, 0)], speeds[min(i + 1, len(speeds) - 1)],
            REFINE_POINTS), hotel_w)[2:]
    return RangeCurve(mode=mode, velocity=speeds, power=powers,
                      range_km=ranges, optimum_v=float(opt_v),
                      optimum_range_km=float(opt_r))


def tradeoff_grid(config: ScenarioConfig,
                  crr_range: tuple[float, float] = (0.01, 0.2),
                  theta_range_deg: tuple[float, float] = (-0.5, 2.0),
                  resolution: int = 20) -> TradeoffGrid:
    """Rolling-minus-flying optimum range over a (C_rr, slope) grid: one
    flying ``best_range`` call over (theta x v), since flying ignores C_rr,
    and one rolling call over (C_rr x theta x v)."""
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution!r}")
    crr_axis = np.linspace(*crr_range, resolution)
    theta_axis = np.linspace(*theta_range_deg, resolution)
    slopes = np.radians(theta_axis)[:, None]
    fly_by_theta = best_range(replace(
        config, rolling_resistance_crr=crr_axis[0], slope_theta=slopes),
        "flying")[1]
    delta = best_range(replace(
        config, rolling_resistance_crr=crr_axis[:, None, None],
        slope_theta=slopes), "rolling")[1] - fly_by_theta
    fly = np.tile(fly_by_theta, (resolution, 1))
    return TradeoffGrid(crr=crr_axis, theta_deg=theta_axis,
                        delta_range_km=delta, flying_range_km=fly)


def platonic_shell_radius(n: float, edge: float) -> float:
    """Circumradius of the pseudo-platonic n-faced solid with given edge.

    Linear interpolation of the real platonic circumradii in face count;
    extrapolated linearly below 4 faces (clamping there would invert the
    bound ordering) and clamped above 12. The radius is floored at edge/2:
    the shell must at least enclose one agent of that footprint.
    """
    faces = sorted(PLATONIC_CIRCUMRADIUS_PER_EDGE)
    radii = [PLATONIC_CIRCUMRADIUS_PER_EDGE[k] * edge for k in faces]
    if n <= faces[0]:
        slope = (radii[1] - radii[0]) / (faces[1] - faces[0])
        r = radii[0] + slope * (n - faces[0])
    elif n >= faces[-1]:
        r = radii[-1]
    else:
        r = float(np.interp(n, faces, radii))
    return max(r, 0.5 * edge)


def polygon_prism_radius(n: int, side: float) -> float:
    """Circumradius of the regular n-gon cross-section, side fixed."""
    if n == 1:
        return side / 2.0  # degenerate single-agent cylinder
    return side / (2.0 * math.sin(math.pi / n))


def scaling_bounds(config: ScenarioConfig,
                   n_range: range = range(1, 13)) -> ScalingCurve:
    """Rolling/flying range-ratio bounds versus agent count.

    Mass and battery energy scale with n. The upper bound rolls the
    pseudo-platonic sphere (circular drag cross-section); the lower bound
    rolls the regular n-gon prism (rectangular frontal area 2 R w, which
    grows quickly with n). Flying range is independent of n because n
    independent agents scale power and energy identically. Each bound is
    one rolling sweep over the agent counts, passed as an (n, 1) array.
    """
    if any(n < 1 for n in n_range):
        raise ValueError("agent count must be >= 1")
    width = config.shell_width_w
    fly_range = range_sweep(config, "flying").optimum_range_km
    n = np.array(n_range)[:, None]
    cfg = replace(config, num_agents=n)
    r_up = [platonic_shell_radius(k, width) for k in n_range]
    r_lo = np.array([polygon_prism_radius(k, width) for k in n_range])
    shells = ((np.array(r_up), np.array([math.pi * r ** 2 for r in r_up])),
              (r_lo, 2.0 * r_lo * width))
    # the torque is shared by the 2 n propeller pairs
    upper, lower = (_sweep(cfg, "rolling", default_velocity_grid("rolling"),
                           shell=(radius[:, None], area[:, None], 2 * n))[3]
                    / fly_range for radius, area in shells)
    return ScalingCurve(n=n[:, 0], ratio_lower=lower, ratio_upper=upper)
