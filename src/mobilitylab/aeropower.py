"""Aerodynamic drag, projected area, induced velocity and rotor power.

All operations are pure functions. ``momentum_power`` is the one rotor
kernel: every mode's inflow and power, rolling (edgewise), flying (tilted)
and hover, comes from it through ``steadystate.rotor_power``, with the
freestream given as its edgewise component and its axial component taken
as *adding* to the induced flow (climb-like branch of momentum theory). A
rotor tilted into the flight direction, the flying trim's case, has a
positive axial component.
"""

from __future__ import annotations

import numpy as np

from .params import AnalysisError, ScenarioConfig

#: Newton step tolerance on induced velocity, m/s
INDUCED_TOL = 1e-10
#: iteration cap for the induced-velocity Newton solve
INDUCED_MAX_ITER = 200


class SolverError(AnalysisError):
    """An iterative solve (induced velocity, flying trim) did not converge."""


def projected_area(config: ScenarioConfig, alpha: float, mode: str) -> float:
    """Body area projected on the plane orthogonal to the velocity vector.

    A = (h|cos a| + 2 l |sin a|) w, with h selected by ``mode`` ("rolling"
    or "flying"). Pi-periodic and strictly positive; broadcasts over alpha.
    """
    if mode not in ("rolling", "flying"):
        raise ValueError(f"mode must be 'rolling' or 'flying', got {mode!r}")
    return (getattr(config, f"body_height_h_{mode}") * abs(np.cos(alpha))
            + 2.0 * config.shell_radius_l * abs(np.sin(alpha))
            ) * config.shell_width_w


def drag_force(config: ScenarioConfig, area: float, speed: float) -> float:
    """Drag 0.5 * cd * rho * A * v |v|, signed with v (it opposes motion)."""
    return (0.5 * config.drag_coefficient_cd * config.air_density * area
            * speed * abs(speed))


def _edgewise_inflow(rhs, vx):
    """Root of nu^2 (nu^2 + vx^2) = rhs^2, a quadratic in nu^2.

    nu^2 = 2 rhs^2 / (vx^2 + sqrt(vx^4 + 4 rhs^2)) = rhs / (q + sqrt(1 + q^2))
    with q = vx^2 / (2 rhs): no cancellation when rhs << vx^2, no underflow,
    exactly sqrt(rhs) in hover.
    """
    q = vx * vx / (2.0 * rhs)
    return np.sqrt(rhs / (q + np.sqrt(1.0 + q * q)))


def _newton(residual, x, lo, hi, tol, max_iter):
    """Safeguarded Newton (rtsafe, Numerical Recipes 9.4) on arrays, with
    ``residual(x)`` -> (r, dr/dx), r < 0 at lo and r > 0 at hi. Each step
    narrows the bracket by the sign of r and bisects where the Newton step
    leaves it. An element stops updating once its step is below tol, so
    results are elementwise. Returns x and the mask still moving."""
    active = np.ones(np.shape(x), bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            r, slope = residual(x)
            lo, hi = np.where(r < 0.0, x, lo), np.where(r > 0.0, x, hi)
            new = x - r / slope
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            step = np.abs(new - x)
            x = np.where(active, new, x)
            active &= ~(step < tol)
            if not active.any():
                break
    return x, active


def tilted_inflow(rhs, speed, vx, vz):
    """Root nu of nu |(vx, vz + nu)| = rhs > 0 in [0, sqrt(rhs) + max(0, -vz)]
    by bracketed Newton, given the freestream speed = |(vx, vz)|;
    broadcasts."""
    def residual(nu):
        w = vz + nu
        s = np.sqrt(vx * vx + w * w)
        return nu * s - rhs, s + nu * w / s

    # for vz > 0 the residual is convex and both the edgewise root at the
    # full speed and the axial-climb root lie above the tilted one, so Newton
    # descends monotonically from the lower of them; at vz <= 0 the climb
    # term is the hover root, above the edgewise one
    climb = np.maximum(vz, 0.0)
    nu, moving = _newton(
        residual, np.minimum(_edgewise_inflow(rhs, speed),
                             2.0 * rhs / (np.sqrt(climb * climb + 4.0 * rhs)
                                          + climb)),
        0.0, np.sqrt(rhs) + np.maximum(0.0, -vz), INDUCED_TOL,
        INDUCED_MAX_ITER)
    if moving.any():
        raise SolverError(f"induced velocity Newton solve did not converge "
                          f"to {INDUCED_TOL} in {INDUCED_MAX_ITER} iterations")
    return nu


def momentum_power(thrust, rho2a, speed, vx, vz, eta):
    """Momentum-theory inflow and electrical power of one rotor: (nu, P).

    Takes thrust f (N, >= 0), 2 rho A, the freestream speed = |(vx, vz)|
    with vx its edgewise and vz its axial component (m/s, positive adding
    to the induced flow) and the chain efficiency eta; broadcasts. nu is the
    non-negative root of nu |(vx, vz + nu)| = f / (2 rho A), closed-form
    where vz is 0 or NaN, else by ``tilted_inflow``, and 0 at f = 0. P =
    f (nu + vz) / eta, clamped at zero (NaN stays NaN): windmilling recovery
    is not modeled. The one place that forms either.
    """
    thrust = np.asarray(thrust, float)  # 0 / 0 is NaN, not an exception
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rhs = thrust / rho2a
        tilted = (np.abs(vz) > 0.0) & (thrust > 0.0)  # NaN vz stays closed
        n_tilted = np.count_nonzero(tilted)
        if n_tilted == tilted.size:  # every element tilted: no gather
            nu = tilted_inflow(rhs, speed, vx, vz)
        else:
            nu = np.where(tilted | (thrust == 0.0), 0.0,
                          _edgewise_inflow(rhs, vx))
            if n_tilted:
                tilted = np.broadcast_to(tilted, nu.shape)
                nu[tilted] = tilted_inflow(*(
                    np.broadcast_to(x, nu.shape)[tilted]
                    for x in (rhs, speed, vx, vz)))
        return nu, np.maximum(thrust * (nu + vz), 0.0) / eta


def induced_velocity(thrust, config: ScenarioConfig, disk_area: float,
                     v_inf=0.0, alpha=0.0):
    """Momentum-theory induced velocity through a rotor disk.

    Returns the non-negative root nu of

        nu * sqrt((v_inf cos a)^2 + (v_inf sin a + nu)^2) = f / (2 rho A)

    broadcasting thrust, v_inf, alpha, the air density and disk_area; Python
    numbers give a float. ``momentum_power``'s nu at the components of v_inf.
    """
    if np.any(disk_area <= 0):
        raise ValueError(f"disk_area must be > 0, got {disk_area!r}")
    thrust, v_inf, alpha = (np.asarray(x, float)
                            for x in (thrust, v_inf, alpha))
    if np.any(thrust < 0):
        raise ValueError(f"thrust must be >= 0, got {thrust.min()!r}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf * sin(0)
        nu = momentum_power(thrust, 2.0 * config.air_density * disk_area,
                            np.abs(v_inf), v_inf * np.cos(alpha),
                            v_inf * np.sin(alpha), 1.0)[0]
    return float(nu) if nu.ndim == 0 else nu

