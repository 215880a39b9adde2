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

Flying trim uses the full vector balance in slope-aligned axes (thrust
magnitude and tilt as unknowns); no small-angle approximation, since drag is
comparable to weight at the speeds of interest in a dense atmosphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import aeropower, control
from .params import AnalysisError, ScenarioConfig

#: fixed-point iteration cap / tolerance for the flying tilt angle
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


def rolling_power(config: ScenarioConfig, torque, v, n_pairs: int = 4):
    """Total electrical power of a pure roll torque held at speed v.

    The torque loads ``n_pairs`` propeller pairs equally at lever a/sqrt(2);
    one edgewise rotor per pair spins. Broadcasts over torque and v; NaN
    where the pair force exceeds the rotor thrust limit by more than a few
    ulps (the closed loop's uniform saturation lands on the limit only to
    within rounding).
    """
    veh = config.vehicle
    f = abs(torque) / (n_pairs * veh.rotor_arm_length_a / math.sqrt(2.0))
    power = aeropower.rotors_power(config.environment, veh, n_pairs, f, v)
    limit = veh.max_rotor_thrust * (1.0 + 16.0 * math.ulp(1.0))
    if type(power) is float:
        return math.nan if f > limit else power
    return np.where(f > limit, np.nan, power)


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
    infeasible) at speeds v. An element of the tilt fixed point stops
    updating once its step is below TRIM_TOL, so results are elementwise."""
    env, veh, ter = config.environment, config.vehicle, config.terrain
    m = veh.cobot_mass
    along_weight = m * env.gravity * math.sin(ter.slope_theta)
    normal_weight = m * env.gravity * math.cos(ter.slope_theta)

    def drag_at(alpha):
        area = aeropower.projected_area(veh, alpha, "flying")
        return aeropower.drag_force(env, area, v, cd=veh.drag_coefficient_cd)

    alpha = np.zeros_like(v)
    active = np.ones(v.shape, bool)
    for _ in range(TRIM_MAX_ITER):
        new_alpha = np.arctan2(drag_at(alpha) + along_weight, normal_weight)
        step = np.abs(new_alpha - alpha)
        alpha = np.where(active, new_alpha, alpha)
        active &= ~(step < TRIM_TOL)
        if not active.any():
            break
    else:
        raise aeropower.SolverError(
            f"flying trim fixed point did not converge at v={v[active]}")

    # re-evaluate at the converged tilt so the trim residuals are exact
    drag = drag_at(alpha)
    thrust = np.hypot(drag + along_weight, normal_weight)
    alpha = np.arctan2(drag + along_weight, normal_weight)

    f = thrust / 4.0
    per_agent = aeropower.rotors_power(env, veh, 4, f, v, alpha)
    power = np.where(f > veh.max_rotor_thrust, np.nan,
                     config.num_agents * per_agent)
    return alpha, drag, thrust, power


def flying_power(config: ScenarioConfig, v):
    """Total flying power at speed(s) v; NaN where a rotor saturates."""
    return _flying_trim(config, np.asarray(v, float))[3]


def flying_equilibrium(config: ScenarioConfig, v: float) -> FlyingSolution:
    """Constant-height-above-slope trim of the flying agents at speed v.

    Each of the ``num_agents`` agents flies independently; reported thrust,
    drag and power are totals over all agents. In slope-aligned axes the
    trim is T sin(a) = drag + m g sin(theta) along the slope and
    T cos(a) = m g cos(theta) normal to it, with the projected area itself a
    function of the solved tilt a.
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
