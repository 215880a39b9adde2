"""Steady-state planar equilibria: rolling on a slope, flying above one.

Rolling model (no slip, pure rotor torque): at constant speed the commanded
torque must overcome, through the contact point, the aerodynamic drag, the
along-slope weight component and the rolling resistance:

    tau = (drag + m g sin(theta) + C_rr N) * l,      N = m g cos(theta)

which is the fixed point of the rolling dynamics equation in the dynamics
module. The reported traction force F_t is the total resistive force
drag + m g sin(theta) + C_rr N.

Rolling rotor freestream: each rotor sees the translational speed v edgewise
(alpha = 0). The rotor tangential speed about the roll axis is comparable to
v at the rolling optimum but its induced-power correction is second order,
so it is neglected; the choice is isolated in ``rolling_power``.

Rolling drag area: the cylinder's attitude rotates continuously, so the
steady-state drag area is the time average over one revolution,
(2/pi) (h + 2 l) w.

Flying trim uses the full vector balance in slope-aligned axes, thrust T
and tilt a unknown: T sin(a) = drag(a) + W sin(theta) along the slope and
T cos(a) = W cos(theta) normal to it, W = m g, with the projected area a
function of a. No small-angle approximation: drag is comparable to weight at
the speeds of interest in a dense atmosphere. The tilt is a root of
r(a) = a - atan2(drag(a) + W sin(theta), W cos(theta)), and r(-pi/2) < 0 <
r(pi/2). The fixed-point step from a = 0 picks by its sign the half
[0, pi/2] or [-pi/2, 0] that holds a root; ``aeropower._newton``, the
bracketed Newton solver of the tilted inflow too, solves in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import aeropower, control
from .params import AnalysisError, ScenarioConfig

#: Newton iteration cap / step tolerance (rad) of the flying tilt
TRIM_MAX_ITER = 100
TRIM_TOL = 1e-9


class InfeasibleError(AnalysisError):
    """The equilibrium demands more thrust than a rotor can produce."""


@dataclass(frozen=True)
class RollingSolution:
    speed_v: float
    required_torque: float          # N m about the roll axis
    per_rotor_thrust: np.ndarray    # N, one entry per rotor (8 for 2 agents)
    normal_force: float             # N
    drag: float                     # N
    rolling_resistance_force: float  # N (C_rr * N)
    total_electrical_power: float   # W


@dataclass(frozen=True)
class FlyingSolution:
    speed_v: float
    tilt_alpha: float               # rad, positive tilted into flight
    total_thrust: float             # N, summed over all agents
    drag: float                     # N, summed over all agents
    total_electrical_power: float   # W, summed over all agents


def average_rolling_area(config: ScenarioConfig) -> float:
    """Revolution-averaged projected area of the rolling cylinder."""
    veh = config.vehicle
    return (2.0 / math.pi) * (veh.body_height_h_rolling
                              + 2.0 * veh.shell_radius_l) * veh.shell_width_w


def rolling_resistive_force(config: ScenarioConfig, v, area=None):
    """Total resistive force the rolling torque must overcome at speed v.

    ``area`` is the drag area, by default the revolution-averaged cylinder.
    Broadcasts over v and over array-valued terrain fields.
    """
    env, ter = config.environment, config.terrain
    weight = config.total_mass * env.gravity
    if area is None:
        area = average_rolling_area(config)
    drag = aeropower.drag_force(env, area, v,
                                cd=config.vehicle.drag_coefficient_cd)
    return (drag + weight * np.sin(ter.slope_theta)
            + ter.rolling_resistance_crr * (weight * np.cos(ter.slope_theta)))


def _pair_terms(config: ScenarioConfig, n_pairs: int):
    """Lever n a/sqrt(2), pair-force limit, 2 rho A and chain efficiency."""
    env, veh = config.environment, config.vehicle
    return (n_pairs * veh.rotor_arm_length_a / math.sqrt(2.0),
            veh.max_rotor_thrust * (1.0 + 16.0 * math.ulp(1.0)),
            2.0 * env.air_density * veh.rotor_disk_area,
            aeropower._chain_efficiency(veh.eta_propeller, veh.eta_motor,
                                        veh.eta_controller))


def rolling_power(config: ScenarioConfig, torque, v, n_pairs: int = 4):
    """Total electrical power of a pure roll torque held at speed v.

    The torque loads ``n_pairs`` propeller pairs equally; one edgewise rotor
    per pair spins. Broadcasts over torque and v; NaN, masked before the
    power chain runs, where the pair force exceeds the rotor thrust limit by
    more than a few ulps (the closed loop's uniform saturation lands on the
    limit only to within rounding). ``rolling_power_fn`` is the same
    arithmetic on Python floats, for the closed-loop tick.
    """
    lever, limit, rho2a, eta = _pair_terms(config, n_pairs)
    f = abs(torque) / lever
    f = np.where(f > limit, np.nan, f)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        nu = np.where(f != 0.0,
                      aeropower._edgewise_inflow(f / rho2a, v, np.sqrt), 0.0)
        return n_pairs * (f * (nu - v * 0.0) / eta)


def rolling_power_fn(config: ScenarioConfig, n_pairs: int = 4):
    """``rolling_power`` on Python floats for one config: a function
    (torque, v) -> W with every config-only term computed once, equal to
    ``rolling_power`` bit for bit."""
    lever, limit, rho2a, eta = _pair_terms(config, n_pairs)
    inflow, sqrt = aeropower._edgewise_inflow, math.sqrt

    def power(torque: float, v: float) -> float:
        f = abs(torque) / lever
        if f > limit:
            return math.nan
        nu = inflow(f / rho2a, v, sqrt) if f != 0.0 else 0.0
        # rotors_power at tilt 0; v * 0.0 is NaN at |v| = inf, as v sin(0) is
        return n_pairs * (f * (nu - v * 0.0) / eta)

    return power


def rolling_equilibrium(config: ScenarioConfig, v: float) -> RollingSolution:
    """Steady rolling at speed v on the configured slope."""
    if v < 0:
        raise ValueError(f"v must be >= 0, got {v!r}")
    env, veh, ter = config.environment, config.vehicle, config.terrain
    m = config.total_mass
    normal = m * env.gravity * math.cos(ter.slope_theta)
    drag = aeropower.drag_force(env, average_rolling_area(config), v,
                                cd=veh.drag_coefficient_cd)
    torque = rolling_resistive_force(config, v) * veh.shell_radius_l
    power = float(rolling_power(config, torque, v))
    if math.isnan(power):
        raise InfeasibleError(
            f"rolling at v={v} m/s needs torque {torque:.3f} N m, beyond "
            f"max rotor thrust {veh.max_rotor_thrust} N per pair")

    # pair k maps to rotors (k, k+4); the first spins for a positive force
    mixer = control.mixer_matrix(veh.rotor_arm_length_a,
                                 veh.torque_constant_k_tau)
    rotor_thrust = np.zeros(8)
    for k, f_pair in enumerate(control.allocate((0.0, torque, 0.0), mixer)):
        rotor_thrust[k if f_pair >= 0 else k + 4] = abs(f_pair)

    return RollingSolution(speed_v=v, required_torque=torque,
                           per_rotor_thrust=rotor_thrust,
                           normal_force=normal, drag=drag,
                           rolling_resistance_force=(
                               ter.rolling_resistance_crr * normal),
                           total_electrical_power=power)


def _flying_trim(config: ScenarioConfig, v: np.ndarray):
    """Tilt, per-agent drag and thrust, and total power (NaN where
    infeasible) at speeds v, broadcast over array-valued slopes; the tilt is
    ``aeropower._newton``'s root, elementwise."""
    env, veh, ter = config.environment, config.vehicle, config.terrain
    along_weight = veh.cobot_mass * env.gravity * np.sin(ter.slope_theta)
    normal_weight = veh.cobot_mass * env.gravity * np.cos(ter.slope_theta)

    def drag_at(alpha, area=aeropower.projected_area):
        return aeropower.drag_force(env, area(veh, alpha, "flying"), v,
                                    cd=veh.drag_coefficient_cd)

    def residual(alpha):
        along = drag_at(alpha) + along_weight
        slope = normal_weight * drag_at(alpha, aeropower.projected_area_slope)
        return (alpha - np.arctan2(along, normal_weight),
                1.0 - slope / (along * along + normal_weight ** 2))

    alpha = np.arctan2(drag_at(0.0) + along_weight, normal_weight)
    lo = np.where(alpha > 0.0, 0.0, -0.5 * math.pi)
    alpha, moving = aeropower._newton(residual, alpha, lo, lo + 0.5 * math.pi,
                                      TRIM_TOL, TRIM_MAX_ITER)
    if moving.any():
        stuck = np.broadcast_to(v, alpha.shape)[moving]
        raise aeropower.SolverError(
            f"flying trim did not converge at {stuck.size} "
            f"speed(s), v = {stuck.min():.6g} to {stuck.max():.6g} m/s")

    # re-evaluate at the converged tilt so the trim residuals are exact
    drag = drag_at(alpha)
    thrust = np.hypot(drag + along_weight, normal_weight)
    alpha = np.arctan2(drag + along_weight, normal_weight)

    f = thrust / 4.0
    per_agent = aeropower.rotors_power(env, veh, f, v, alpha)
    power = np.where(f > veh.max_rotor_thrust, np.nan,
                     config.num_agents * per_agent)
    return alpha, drag, thrust, power


def flying_power(config: ScenarioConfig, v):
    """Total flying power at speed(s) v; NaN where a rotor saturates.
    Broadcasts over v and over an array-valued slope."""
    return _flying_trim(config, np.asarray(v, float))[3]


def flying_equilibrium(config: ScenarioConfig, v: float) -> FlyingSolution:
    """Constant-height-above-slope trim of the flying agents at speed v.

    Each of the ``num_agents`` agents flies independently; reported thrust,
    drag and power are totals over all agents.
    """
    if v < 0:
        raise ValueError(f"v must be >= 0, got {v!r}")
    alpha, drag, thrust, power = map(
        float, _flying_trim(config, np.asarray(v, float)))
    if math.isnan(power):
        raise InfeasibleError(
            f"flying at v={v} m/s needs per-rotor thrust {thrust / 4.0:.3f} "
            f"N > max rotor thrust {config.vehicle.max_rotor_thrust} N")
    n = config.num_agents
    return FlyingSolution(speed_v=v, tilt_alpha=alpha,
                          total_thrust=n * thrust, drag=n * drag,
                          total_electrical_power=power)
