"""Aerogel insulation sizing for the electronics cavity.

Conduction through a spherical aerogel shell of inner radius
r1 = CAVITY_RADIUS and outer radius r2 = r1 + t, t the insulation thickness:

    Q = 4 pi k r1 r2 (T1 - T2) / (r2 - r1)

with the cavity held at T1 = SET_POINT and T2 the ambient temperature,
reported as a positive outward loss for a heated interior. A heater of
efficiency HEATER_EFFICIENCY replaces Q. Everything here is closed form;
``thickness_for_budget`` inverts Q for r2 analytically.
"""

from __future__ import annotations

import math

CONDUCTIVITY = 0.004      # aerogel k, W/(m K)
AEROGEL_DENSITY = 1.9     # kg/m^3, silica aerogel (0.0019 g/cm^3)
CAVITY_RADIUS = 0.1       # electronics cavity radius r1, m
SET_POINT = 0.0           # electronics temperature T1, degC
HEATER_EFFICIENCY = 0.95  # heat delivered per electrical W


def sizing_table(ambient: float, thicknesses) -> list[list[float]]:
    """Rows (thickness_m, loss_w, heater_w, mass_kg) for a thickness sweep
    at ambient temperature T2 (degC); the mass is the aerogel shell's."""
    r1, dt = CAVITY_RADIUS, SET_POINT - ambient
    rows = []
    for t in thicknesses:
        r2 = r1 + t
        if not (math.isfinite(t) and r2 > r1):
            raise ValueError(f"thickness must be finite, > 0 and above float "
                             f"resolution at r1 = {r1} m, got {t!r}")
        loss = 4.0 * math.pi * CONDUCTIVITY * r1 * r2 * dt / (r2 - r1)
        rows.append([t, loss, loss / HEATER_EFFICIENCY,
                     AEROGEL_DENSITY * (4.0 / 3.0) * math.pi
                     * (r2 ** 3 - r1 ** 3)])
    return rows


def thickness_for_budget(budget: float, ambient: float) -> float:
    """Insulation thickness t = r2 - r1 whose loss equals the heater budget.

    The target loss is Q = budget * HEATER_EFFICIENCY. Solved in closed form:
    r2 = Q r1 / (Q - Q_min), with Q_min = 4 pi k r1 (T1 - T2) the loss as
    r2 -> infinity. Budgets at or below Q_min / HEATER_EFFICIENCY, or so
    large that t is below float resolution at r1, raise ValueError.
    """
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"budget must be finite and > 0, got {budget!r}")
    r1, dt = CAVITY_RADIUS, SET_POINT - ambient
    if dt <= 0:
        raise ValueError(
            f"ambient_temperature must be below the {SET_POINT} degC set "
            f"point for a heater budget to size the insulation, got "
            f"{ambient!r}")
    q = budget * HEATER_EFFICIENCY
    q_min = 4.0 * math.pi * CONDUCTIVITY * r1 * dt
    if q <= q_min:
        raise ValueError(
            f"target loss {q:.4g} W is at or below the infinite-thickness "
            f"asymptote {q_min:.4g} W; no finite thickness suffices")
    r2 = q * r1 / (q - q_min)
    if not r2 > r1:
        raise ValueError(f"budget {budget!r} W needs a thickness below "
                         f"float resolution at r1 = {r1} m")
    return r2 - r1
