"""Aerodynamic drag, projected area, induced velocity and rotor power.

All operations are pure functions.

Angle-of-attack sign convention: ``alpha`` is the pitch of the rotor plane's
leading edge relative to the freestream. A rotor tilted *into* the flight
direction (propulsive tilt, the equilibrium case for this vehicle) carries
``alpha < 0``, which makes the ``-v_inf*sin(alpha)`` term of the power model
positive. The induced-velocity solver is called by the equilibrium code with
the axial inflow component taken as *adding* to the induced flow (climb-like
branch of momentum theory), i.e. with ``alpha = |tilt|``.
"""

from __future__ import annotations

import numpy as np

from .params import AnalysisError, EnvironmentParams, VehicleParams

#: Newton step tolerance on induced velocity, m/s
INDUCED_TOL = 1e-10
#: iteration cap for the induced-velocity Newton solve
INDUCED_MAX_ITER = 200


class SolverError(AnalysisError):
    """An iterative solve (induced velocity, flying trim) did not converge."""


def _body_height(vehicle: VehicleParams, mode: str) -> float:
    if mode not in ("rolling", "flying"):
        raise ValueError(f"mode must be 'rolling' or 'flying', got {mode!r}")
    return getattr(vehicle, f"body_height_h_{mode}")


def projected_area(vehicle: VehicleParams, alpha: float, mode: str) -> float:
    """Body area projected on the plane orthogonal to the velocity vector.

    A = (h|cos a| + 2 l |sin a|) w, with h selected by ``mode`` ("rolling"
    or "flying"). Pi-periodic and strictly positive; broadcasts over alpha.
    """
    h = _body_height(vehicle, mode)
    return (h * abs(np.cos(alpha))
            + 2.0 * vehicle.shell_radius_l * abs(np.sin(alpha))
            ) * vehicle.shell_width_w


def projected_area_slope(vehicle: VehicleParams, alpha, mode: str):
    """dA/da of ``projected_area`` on arrays; 0 at the kink a = 0."""
    h, sin, cos = _body_height(vehicle, mode), np.sin(alpha), np.cos(alpha)
    return (2.0 * vehicle.shell_radius_l * np.sign(sin) * cos
            - h * np.sign(cos) * sin) * vehicle.shell_width_w


def drag_force(env: EnvironmentParams, area: float, speed: float,
               cd: float) -> float:
    """Drag 0.5 * cd * rho * A * v |v|, signed with v (it opposes motion)."""
    return 0.5 * cd * env.air_density * area * speed * abs(speed)


def _edgewise_inflow(rhs, vx, sqrt):
    """Root of nu^2 (nu^2 + vx^2) = rhs^2, a quadratic in nu^2.

    nu^2 = 2 rhs^2 / (vx^2 + sqrt(vx^4 + 4 rhs^2)) = rhs / (q + sqrt(1 + q^2))
    with q = vx^2 / (2 rhs): no cancellation when rhs << vx^2, no underflow,
    exactly sqrt(rhs) in hover. math.sqrt and np.sqrt both round correctly,
    so scalar and array calls agree bit for bit.
    """
    q = vx * vx / (2.0 * rhs)
    return sqrt(rhs / (q + sqrt(1.0 + q * q)))


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


def _tilted_inflow(rhs, vx, vz):
    """Root of nu |(vx, vz + nu)| = rhs in [0, sqrt(rhs) + max(0, -vz)]."""
    def residual(nu):
        w = vz + nu
        s = np.sqrt(vx * vx + w * w)
        return nu * s - rhs, s + nu * w / s

    # for vz > 0 the residual is convex and the edgewise root lies above
    # the tilted one, so Newton descends monotonically from it
    nu, moving = _newton(
        residual, _edgewise_inflow(rhs, np.hypot(vx, vz), np.sqrt), 0.0,
        np.sqrt(rhs) + np.maximum(0.0, -vz), INDUCED_TOL, INDUCED_MAX_ITER)
    if moving.any():
        raise SolverError(f"induced velocity Newton solve did not converge "
                          f"to {INDUCED_TOL} in {INDUCED_MAX_ITER} iterations")
    return nu


def induced_velocity(thrust, env: EnvironmentParams, disk_area: float,
                     v_inf=0.0, alpha=0.0):
    """Momentum-theory induced velocity through a rotor disk.

    Returns the non-negative root nu of

        nu * sqrt((v_inf cos a)^2 + (v_inf sin a + nu)^2) = f / (2 rho A)

    broadcasting thrust, v_inf and alpha; Python numbers give a float. With
    no axial component (edgewise, or hover) the root is closed-form, else a
    bracket-safeguarded Newton solve converges to INDUCED_TOL.
    """
    if disk_area <= 0:
        raise ValueError(f"disk_area must be > 0, got {disk_area!r}")
    rho2a = 2.0 * env.air_density * disk_area
    shape = np.broadcast_shapes(np.shape(thrust), np.shape(v_inf),
                                np.shape(alpha))
    thrust, v_inf, alpha = (np.broadcast_to(x, shape).astype(float).ravel()
                            for x in (thrust, v_inf, alpha))
    if np.any(thrust < 0):
        raise ValueError(f"thrust must be >= 0, got {thrust.min()!r}")
    rhs = thrust / rho2a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vx, vz = v_inf * np.cos(alpha), v_inf * np.sin(alpha)
        nu = _edgewise_inflow(rhs, vx, np.sqrt)
        tilted = (np.abs(vz) > 0.0) & (thrust > 0.0)  # NaN vz stays edgewise
        if tilted.any():
            nu[tilted] = _tilted_inflow(rhs[tilted], vx[tilted], vz[tilted])
    nu = np.where(thrust > 0.0, nu, 0.0).reshape(shape)
    return float(nu) if nu.ndim == 0 else nu


def rotor_power(thrust, v_inf, alpha, nu, eta_p: float, eta_m: float,
                eta_c: float):
    """Electrical power P = f (nu - v_inf sin a) / (eta_p eta_m eta_c).

    Takes thrust f (N, >= 0), freestream v_inf (m/s, >= 0), angle of attack
    alpha (rad) and induced velocity nu (m/s, >= 0), which may be
    broadcastable arrays. Clamped at zero (NaN stays NaN): descending-flight
    windmilling recovery is not modeled.
    """
    eta = _chain_efficiency(eta_p, eta_m, eta_c)
    with np.errstate(invalid="ignore"):  # inf * sin(0) is NaN
        aero = thrust * (nu - v_inf * np.sin(alpha))
    return np.maximum(aero, 0.0) / eta


def _chain_efficiency(eta_p: float, eta_m: float, eta_c: float) -> float:
    for name, eta in (("eta_p", eta_p), ("eta_m", eta_m), ("eta_c", eta_c)):
        if not (0.0 < eta <= 1.0):
            raise ValueError(f"{name} must be in (0, 1], got {eta!r}")
    return eta_p * eta_m * eta_c


def rotors_power(env: EnvironmentParams, vehicle: VehicleParams, thrust,
                 v_inf=0.0, tilt=0.0):
    """Electrical power of one agent's four rotors, each at ``thrust``, in a
    freestream v_inf at propulsive tilt (0: edgewise) whose axial component
    adds to the induced flow. Broadcasts over thrust, v_inf and tilt."""
    nu = induced_velocity(thrust, env, vehicle.rotor_disk_area, v_inf=v_inf,
                          alpha=tilt)
    return 4 * rotor_power(thrust, v_inf, -tilt, nu, vehicle.eta_propeller,
                           vehicle.eta_motor, vehicle.eta_controller)


def cobot_hover_power(env: EnvironmentParams, vehicle: VehicleParams) -> float:
    """Total electrical hover power of one agent (4 rotors, v_inf = 0)."""
    return rotors_power(env, vehicle, vehicle.cobot_mass * env.gravity / 4.0)
