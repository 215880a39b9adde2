"""Aerogel insulation sizing for the electronics cavity.

Conduction through a thin-walled spherical shell:

    Q = 4 pi k r1 r2 (T1 - T2) / (r2 - r1)

reported as a positive outward loss for a heated interior. Everything here
is closed form; ``thickness_for_budget`` inverts Q for r2 analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

#: silica aerogel, 0.0019 g/cm^3
AEROGEL_DENSITY = 1.9  # kg/m^3


@dataclass(frozen=True)
class ThermalSpec:
    conductivity_k: float = 0.004      # W/(m K)
    inner_radius_r1: float = 0.1       # m
    outer_radius_r2: float = 0.12      # m
    inner_temp_t1: float = 0.0         # degC
    outer_temp_t2: float = -179.0      # degC
    heater_efficiency: float = 0.95
    aerogel_density: float = AEROGEL_DENSITY  # kg/m^3

    def validate(self) -> None:
        if not self.conductivity_k > 0:
            raise ValueError(
                f"conductivity_k must be > 0, got {self.conductivity_k!r}")
        if not 0 < self.inner_radius_r1 < self.outer_radius_r2:
            raise ValueError(
                "radii must satisfy 0 < r1 < r2, got "
                f"r1={self.inner_radius_r1!r}, r2={self.outer_radius_r2!r}")
        if not 0 < self.heater_efficiency <= 1:
            raise ValueError("heater_efficiency must be in (0, 1], got "
                             f"{self.heater_efficiency!r}")
        if self.aerogel_density < 0:
            raise ValueError("aerogel_density must be >= 0, got "
                             f"{self.aerogel_density!r}")


def conduction_loss(spec: ThermalSpec) -> float:
    """Steady conduction rate through the shell, W, positive outward."""
    spec.validate()
    dt = spec.inner_temp_t1 - spec.outer_temp_t2
    return (4.0 * math.pi * spec.conductivity_k * spec.inner_radius_r1
            * spec.outer_radius_r2 * dt
            / (spec.outer_radius_r2 - spec.inner_radius_r1))


def heater_power(loss: float, efficiency: float) -> float:
    """Electrical power the heater draws to replace a conduction loss."""
    if not 0 < efficiency <= 1:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency!r}")
    return loss / efficiency


def minimum_loss(spec: ThermalSpec) -> float:
    """Conduction loss in the r2 -> infinity limit: 4 pi k r1 (T1 - T2).

    No finite insulation thickness can push the loss below this asymptote.
    """
    return (4.0 * math.pi * spec.conductivity_k * spec.inner_radius_r1
            * (spec.inner_temp_t1 - spec.outer_temp_t2))


def thickness_for_budget(budget: float, spec: ThermalSpec) -> float:
    """Insulation thickness t = r2 - r1 whose loss equals the heater budget.

    The target loss is budget * heater_efficiency (the heater converts the
    electrical budget with that efficiency). Solved in closed form:
    r2 = Q r1 / (Q - Q_min), with Q_min the ``minimum_loss`` asymptote.
    Budgets at or below it have no finite solution and raise ValueError.
    """
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget!r}")
    q, r1 = budget * spec.heater_efficiency, spec.inner_radius_r1
    dt = spec.inner_temp_t1 - spec.outer_temp_t2
    if dt <= 0:
        raise ValueError("inner_temp_t1 must exceed outer_temp_t2")
    q_min = minimum_loss(spec)
    if q <= q_min:
        raise ValueError(
            f"target loss {q:.4g} W is at or below the infinite-thickness "
            f"asymptote {q_min:.4g} W; no finite thickness suffices")
    r2 = q * r1 / (q - q_min)
    return r2 - r1


def insulation_mass(spec: ThermalSpec) -> float:
    """Aerogel mass of the shell, density * (4/3) pi (r2^3 - r1^3)."""
    spec.validate()
    return (spec.aerogel_density * (4.0 / 3.0) * math.pi
            * (spec.outer_radius_r2 ** 3 - spec.inner_radius_r1 ** 3))


def sizing_table(spec: ThermalSpec, thicknesses) -> list[list[float]]:
    """Rows (thickness_m, loss_w, heater_w, mass_kg) for a thickness sweep."""
    rows = []
    for t in thicknesses:
        s = replace(spec, outer_radius_r2=spec.inner_radius_r1 + t)
        loss = conduction_loss(s)
        rows.append([t, loss, heater_power(loss, s.heater_efficiency),
                     insulation_mass(s)])
    return rows
