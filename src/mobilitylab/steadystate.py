"""Steady-state planar equilibria: rolling on a slope, flying above one,
one record per mode (``rolling_state``, ``flying_state``). Both charge
their rotors through ``rotor_power``, the one caller of
``aeropower.momentum_power`` here: it adds the vehicle's disk term 2 rho A
and chain efficiency, and gives NaN power where a rotor saturates.

Rolling model (no slip, pure rotor torque): at constant speed the commanded
torque must overcome, through the contact point, the aerodynamic drag, the
along-slope weight component and the rolling resistance:

    tau = (drag + m g sin(theta) + C_rr N) * l,      N = m g cos(theta)

which is the fixed point of the rolling dynamics equation in the dynamics
module; ``rolling_resistive_force`` is the bracketed sum, the traction
force F_t.

Rolling rotor freestream: each rotor sees the speed v edgewise (alpha = 0);
``pair_power`` hands ``rotor_power`` no axial speed. That leaves out each
rotor's motion along its thrust at omega c about the roll axis, whose
work, f omega c over the pairs = F_t v, is first order, not second: a
known limitation (README).

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
bracketed Newton solver of the tilted inflow too, solves in it, from the
Newton step at a = 0 on that half's one-sided slope. The rotors' power
then comes from ``rotor_power`` on the freestream components the balance
gives, with no trigonometry.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import aeropower
from .params import ScenarioConfig

#: propeller pairs the docked cylinder's roll torque loads, any num_agents
CYLINDER_PAIRS = 4
#: Newton iteration cap / step tolerance (rad) of the flying tilt
TRIM_MAX_ITER = 100
TRIM_TOL = 1e-9


class RollingState(NamedTuple):
    torque: np.ndarray              # N m about the roll axis
    power: np.ndarray               # W total, NaN where a rotor saturates


class FlyingState(NamedTuple):
    tilt: np.ndarray                # rad, positive tilted into flight
    drag: np.ndarray                # N per agent
    thrust: np.ndarray              # N per agent
    power: np.ndarray               # W total, NaN where a rotor saturates


def average_rolling_area(config: ScenarioConfig) -> float:
    """Revolution-averaged projected area of the rolling cylinder."""
    return ((2.0 / math.pi) * (config.body_height_h_rolling
                               + 2.0 * config.shell_radius_l)
            * config.shell_width_w)


def rolling_resistive_force(config: ScenarioConfig, v, area=None):
    """Total resistive force the rolling torque must overcome at speed v.

    ``area`` is the drag area, by default the revolution-averaged cylinder.
    Broadcasts over v and over array-valued terrain fields.
    """
    weight, theta = config.total_mass * config.gravity, config.slope_theta
    if area is None:
        area = average_rolling_area(config)
    drag = aeropower.drag_force(config, area, v)
    return (drag + weight * np.sin(theta)
            + config.rolling_resistance_crr * (weight * np.cos(theta)))


def _pair_lever(config: ScenarioConfig, n_pairs: int = CYLINDER_PAIRS):
    """Roll-torque lever n a/sqrt(2) of ``n_pairs`` equally loaded pairs:
    a pure roll torque tau gives each the pair force |tau| / lever."""
    return n_pairs * config.rotor_arm_length_a / math.sqrt(2.0)


def rotor_power(config: ScenarioConfig, f, speed, vx, vz):
    """Electrical power of one rotor at thrust f in a freestream of the
    given speed, edgewise vx and axial vz: ``aeropower.momentum_power`` on
    the vehicle's 2 rho A and chain efficiency. Broadcasts; NaN where f
    exceeds the rotor thrust limit, masked after the kernel runs. The one
    place that turns a rotor force into electrical power.
    """
    power = aeropower.momentum_power(
        f, 2.0 * config.air_density * config.rotor_disk_area, speed, vx, vz,
        config.eta_propeller * config.eta_motor * config.eta_controller)[1]
    return np.where(f > config.max_rotor_thrust, np.nan, power)


def pair_power(config: ScenarioConfig, f, v,
               n_pairs: int = CYLINDER_PAIRS):
    """Total electrical power of ``n_pairs`` propeller pairs, each loaded
    with the pair force f at speed v: one edgewise rotor per pair spins,
    its power ``rotor_power``'s. Broadcasts over f, v and n_pairs; NaN
    where f exceeds the rotor thrust limit. The one place that forms a
    rolling power.
    """
    # axial speed v * -0.0: a zero, or NaN at |v| = inf, as v sin(0) is
    with np.errstate(invalid="ignore", over="ignore"):
        return n_pairs * rotor_power(config, f, abs(v), v, v * -0.0)


def rolling_state(config: ScenarioConfig, v, shell=None) -> RollingState:
    """Steady rolling at speed(s) v on the configured slope: the torque is
    the resistive force times the shell radius, its power ``pair_power`` at
    the pair force |torque| / ``_pair_lever`` on the shell's pairs. A
    ``shell`` is (radius, drag area, propeller pairs), by default the
    docked cylinder's. Broadcasts like ``rolling_resistive_force``.
    Rolling resistance does not flip sign with v, so v < 0 raises rather
    than give a wrong power.
    """
    if np.min(v, initial=0.0) < 0:
        raise ValueError(f"v must be >= 0, got {np.min(v)}")
    v = np.asarray(v, float)
    radius, area, pairs = shell or (config.shell_radius_l, None,
                                    CYLINDER_PAIRS)
    torque = rolling_resistive_force(config, v, area) * radius
    return RollingState(torque, pair_power(
        config, abs(torque) / _pair_lever(config, pairs), v, pairs))


def flying_state(config: ScenarioConfig, v) -> FlyingState:
    """Constant-height trim of the ``num_agents`` independent agents at
    speed(s) v above the slope. Broadcasts over v and over array-valued
    slopes and environment and vehicle fields; the tilt is
    ``aeropower._newton``'s root, elementwise. v < 0 raises.
    """
    if np.min(v, initial=0.0) < 0:
        raise ValueError(f"v must be >= 0, got {np.min(v)}")
    v = np.asarray(v, float)
    weight = config.cobot_mass * config.gravity
    along_weight = weight * np.sin(config.slope_theta)
    normal_weight = weight * np.cos(config.slope_theta)
    # drag_force(projected_area(a, "flying"), v) written out in the same
    # operation order on one cos and sin of a; its a-slope is
    # kl sign(sin a) cos a - kh sin a, as cos a >= 0 on the bracket
    k = 0.5 * config.drag_coefficient_cd * config.air_density
    h, two_l = config.body_height_h_flying, 2.0 * config.shell_radius_l
    w, speed = config.shell_width_w, abs(v)
    kh, kl = (k * (c * w) * v * speed for c in (h, two_l))

    def drag_at(cos, sin):
        return k * ((h * abs(cos) + two_l * abs(sin)) * w) * v * speed

    def residual(alpha):
        cos, sin = np.cos(alpha), np.sin(alpha)
        along = drag_at(cos, sin) + along_weight
        # 0 at the kink a = 0, the mean of the one-sided slopes
        slope = kl * np.sign(sin) * cos - kh * sin
        return (alpha - np.arctan2(along, normal_weight),
                1.0 - normal_weight * slope / (along * along + normal_sq))

    # the fixed-point step from a = 0 picks the half; Newton starts from the
    # step at a = 0 on that half's one-sided slope, +-kl, or its midpoint
    along = drag_at(1.0, 0.0) + along_weight
    alpha = np.arctan2(along, normal_weight)
    up = alpha > 0.0
    lo = np.where(up, 0.0, -0.5 * math.pi)
    hi = lo + 0.5 * math.pi
    # a weight or drag past 1e154 N overflows the slope's squares only (it
    # reads 1, its limit, or NaN and bisects): no rotor lifts it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        normal_sq = normal_weight ** 2
        alpha = alpha / (1.0 - normal_weight * np.where(up, kl, -kl)
                         / (along * along + normal_sq))
    alpha = np.where((alpha >= lo) & (alpha <= hi), alpha, 0.5 * (lo + hi))
    with np.errstate(over="ignore"):
        alpha, moving = aeropower._newton(residual, alpha, lo, hi, TRIM_TOL,
                                          TRIM_MAX_ITER)
    if moving.any():
        stuck = np.broadcast_to(v, alpha.shape)[moving]
        raise aeropower.SolverError(
            f"flying trim did not converge at {stuck.size} "
            f"speed(s), v = {stuck.min():.6g} to {stuck.max():.6g} m/s")

    # re-evaluate at the converged tilt so the trim residuals are exact
    drag = drag_at(np.cos(alpha), np.sin(alpha))
    along = drag + along_weight
    thrust = np.hypot(along, normal_weight)
    alpha = np.arctan2(along, normal_weight)

    # the freestream components on the rotor axes are v cos and v sin of
    # that tilt, the thrust's normal and along-slope shares
    power = config.num_agents * (4 * rotor_power(
        config, thrust / 4.0, speed, v * (normal_weight / thrust),
        v * (along / thrust)))
    return FlyingState(alpha, drag, thrust, power)
