"""Planar time-domain simulation of the rolling vehicle.

The full 6-DOF contact simulation is out of scope; the steady-state analysis
only needs planar motion. The rolling vehicle is reduced to a single no-slip
degree of freedom about the roll axis:

    (J_yy + m l^2) domega/dt = tau_y - C_rr N l - m g sin(theta) l - drag l

with N = m g cos(theta) and v = omega l tied by the no-slip constraint.
The traction-force moment of the contact reaction is exactly the m l^2 term
absorbed into the effective inertia.

Integration is fixed-step RK4 (deterministic); rolling-resistance torque is
gated off below |omega| = 1e-6 rad/s so static resistance cannot drive
motion from rest.

The closed loop's tick is the sequential hot path. It runs on Python floats
with no numpy (numpy costs more per call on 3-vectors than the arithmetic it
does). Config-only terms are computed once per run in closures, and a tick
calls each once: ``control.rate_loop``, ``steadystate.rolling_power_fn`` and
``_rk4`` on ``_rolling_rhs`` (which writes the drag out itself). A
``SimState`` (a NamedTuple) is built, by ``tuple.__new__``, only for
recorded ticks. The loop is the one place that steps the roll and charges
energy, at the rotor power at the start of each tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from . import control, steadystate
from .params import DT_MAX, ScenarioConfig

#: rolling resistance is inactive below this roll rate, rad/s
OMEGA_STATIC = 1e-6


class SimState(NamedTuple):
    position_s: float = 0.0      # m along slope
    speed_v: float = 0.0         # m/s
    roll_angle: float = 0.0      # rad
    roll_rate_omega: float = 0.0  # rad/s
    energy_consumed: float = 0.0  # J
    time: float = 0.0            # s


@dataclass(frozen=True)
class Trajectory:
    states: list[SimState]
    power: list[float]           # W, one per recorded state
    saturated: list[bool]

    def to_csv_rows(self) -> list[list[float]]:
        return [[st.time, st.position_s, st.speed_v, st.roll_rate_omega, p,
                 st.energy_consumed, int(sat)]
                for st, p, sat in zip(self.states, self.power, self.saturated)]


CSV_HEADER = ["time_s", "position_m", "speed_mps", "omega_radps",
              "power_w", "energy_j", "saturated"]


def rolling_inertia(config: ScenarioConfig) -> float:
    """Roll-axis inertia; solid-cylinder default J_yy = m l^2 / 2."""
    return 0.5 * config.total_mass * config.vehicle.shell_radius_l ** 2


def _rolling_rhs(config: ScenarioConfig
                 ) -> Callable[[float, float, float], float]:
    """Roll acceleration (phi, omega, torque_y) -> domega/dt for one config,
    with every config-only term computed once."""
    env, veh, ter = config.environment, config.vehicle, config.terrain
    m = config.total_mass
    radius = veh.shell_radius_l
    # drag_force(projected_area(phi), omega r) * r, same operation order
    h, two_l, w = veh.body_height_h_rolling, 2.0 * radius, veh.shell_width_w
    k = 0.5 * veh.drag_coefficient_cd * env.air_density
    cos, sin, copysign = math.cos, math.sin, math.copysign
    omega_static = OMEGA_STATIC
    slope_torque = m * env.gravity * math.sin(ter.slope_theta) * radius
    normal = m * env.gravity * math.cos(ter.slope_theta)
    crr_torque = ter.rolling_resistance_crr * normal * radius
    inertia = rolling_inertia(config) + m * radius ** 2

    def accel(phi: float, omega: float, torque_y: float) -> float:
        v = omega * radius
        area = (h * abs(cos(phi)) + two_l * abs(sin(phi))) * w
        resist_torque = slope_torque + k * area * v * abs(v) * radius
        if abs(omega) > omega_static:
            resist_torque += copysign(crr_torque, omega)
        return (torque_y - resist_torque) / inertia

    return accel


def _rk4(accel: Callable[[float, float, float], float], x: float, v: float,
         u: float, dt: float) -> tuple[float, float]:
    """One RK4 step of x' = v, v' = accel(x, v, u) with u held over the
    step, here the roll (phi, omega) under torque u."""
    h = 0.5 * dt
    a1 = accel(x, v, u)
    v2 = v + h * a1
    a2 = accel(x + h * v, v2, u)
    v3 = v + h * a2
    a3 = accel(x + h * v2, v3, u)
    v4 = v + dt * a3
    a4 = accel(x + dt * v3, v4, u)
    return (x + dt / 6.0 * (v + 2 * v2 + 2 * v3 + v4),
            v + dt / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4))


def simulate_closed_loop(config: ScenarioConfig,
                         omega_des: Callable[[float], Sequence[float]] | float,
                         duration: float, dt: float,
                         record_every: int = 1) -> Trajectory:
    """PI rate control -> allocation -> rotor power -> rolling step, per tick.

    ``omega_des`` is either a finite constant desired roll rate (rad/s) or a
    callable t -> desired body-rate 3-vector. A run must record a state
    after t = 0: 1 <= record_every <= round(duration / dt).
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be finite and > 0, got "
                         f"{duration!r}")
    if not 0.0 < dt <= DT_MAX:
        raise ValueError(f"dt must be in (0, {DT_MAX}], got {dt!r}")
    steps = int(round(duration / dt))
    if not 1 <= record_every <= steps:  # else nothing after t = 0 is recorded
        raise ValueError(f"record_every must be in [1, round(duration / dt)"
                         f" = {steps}], got {record_every!r}")
    veh = config.vehicle
    radius = veh.shell_radius_l
    tick = control.rate_loop(control.mixer_matrix(veh.rotor_arm_length_a,
                                                  veh.torque_constant_k_tau),
                             veh.max_rotor_thrust, dt)

    if callable(omega_des):
        desired = omega_des
    else:
        if not math.isfinite(omega_des):
            raise ValueError(f"omega_des must be finite, got {omega_des!r}")
        const = (0.0, float(omega_des), 0.0)
        desired = lambda t: const  # noqa: E731

    accel = _rolling_rhs(config)
    rotor_power = steadystate.rolling_power_fn(config)
    new_tuple = tuple.__new__
    phi = omega = position = energy = t = 0.0
    states, powers, saturated = [SimState()], [0.0], [False]
    for i in range(1, steps + 1):
        torque_y, sat = tick(desired(t), omega)
        power = rotor_power(torque_y, abs(omega * radius))
        phi_new, omega = _rk4(accel, phi, omega, torque_y, dt)
        position += (phi_new - phi) * radius
        phi = phi_new
        energy += power * dt
        t += dt
        if i % record_every == 0:
            states.append(new_tuple(SimState, (position, omega * radius, phi,
                                               omega, energy, t)))
            powers.append(power)
            saturated.append(sat)
    return Trajectory(states=states, power=powers, saturated=saturated)
