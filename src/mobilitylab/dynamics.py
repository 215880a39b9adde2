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

The closed loop's tick is the sequential hot path, one Python frame on
Python floats. It is planar: a PI on the roll-rate error gives the torque
tau, whose pair force |tau| / lever on the cylinder's pairs saturates
beyond the thrust limit to tau = copysign(lever f_max, tau), and it writes
``steadystate.rolling_power``'s edgewise power at that force out; its one
call is the RK4 step ``_roll_step`` builds once per run, plus a callable
setpoint's. Only recorded ticks build a ``SimState``, at t = i dt. The loop
is the one place that steps the roll and charges energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
    return 0.5 * config.total_mass * config.shell_radius_l ** 2


def _roll_step(config: ScenarioConfig, dt: float
               ) -> Callable[[float, float, float], tuple[float, float]]:
    """One RK4 step (phi, omega, torque_y) -> (phi, omega) of the roll, the
    torque held over the step. Each stage acceleration is

        tau/J - slope/J - (c_h |cos phi| + c_l |sin phi|) omega |omega|
              - sign(omega) C_rr N l / J   (0 for |omega| <= OMEGA_STATIC)

    on coefficients built once per run: ``drag_force`` on the rolling
    ``projected_area`` times l, with v = omega l, gives c_h = k w l^3 h / J
    and c_l = k w l^3 2l / J (k = cd rho / 2)."""
    m, radius = config.total_mass, config.shell_radius_l
    inertia = rolling_inertia(config) + m * radius ** 2
    drag = (0.5 * config.drag_coefficient_cd * config.air_density
            * config.shell_width_w * radius ** 3 / inertia)
    c_h, c_l = drag * config.body_height_h_rolling, drag * (2.0 * radius)
    slope = (m * config.gravity * math.sin(config.slope_theta) * radius
             / inertia)
    crr = (config.rolling_resistance_crr * m * config.gravity
           * math.cos(config.slope_theta) * radius / inertia)
    cos, sin, gate = math.cos, math.sin, OMEGA_STATIC
    half, sixth = 0.5 * dt, dt / 6.0

    def step(phi: float, omega: float, torque_y: float
             ) -> tuple[float, float]:
        drive = torque_y / inertia - slope
        a1 = (drive - (c_h * abs(cos(phi)) + c_l * abs(sin(phi)))
              * omega * abs(omega)
              - (crr if omega > gate else -crr if omega < -gate else 0.0))
        phi2, omega2 = phi + half * omega, omega + half * a1
        a2 = (drive - (c_h * abs(cos(phi2)) + c_l * abs(sin(phi2)))
              * omega2 * abs(omega2)
              - (crr if omega2 > gate else -crr if omega2 < -gate else 0.0))
        phi3, omega3 = phi + half * omega2, omega + half * a2
        a3 = (drive - (c_h * abs(cos(phi3)) + c_l * abs(sin(phi3)))
              * omega3 * abs(omega3)
              - (crr if omega3 > gate else -crr if omega3 < -gate else 0.0))
        phi4, omega4 = phi + dt * omega3, omega + dt * a3
        a4 = (drive - (c_h * abs(cos(phi4)) + c_l * abs(sin(phi4)))
              * omega4 * abs(omega4)
              - (crr if omega4 > gate else -crr if omega4 < -gate else 0.0))
        return (phi + sixth * (omega + 2 * omega2 + 2 * omega3 + omega4),
                omega + sixth * (a1 + 2 * a2 + 2 * a3 + a4))

    return step


def simulate_closed_loop(config: ScenarioConfig,
                         omega_des: Callable[[float], Sequence[float]] | float,
                         duration: float, dt: float,
                         record_every: int = 1) -> Trajectory:
    """PI roll-rate control -> pair force -> power -> rolling step, per tick.

    ``omega_des`` is either a finite constant desired roll rate (rad/s) or a
    callable t -> body-rate 3-vector with x and z exactly 0 (the model rolls
    about y only). A run must record a state after t = 0:
    1 <= record_every <= round(duration / dt).
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
    const = not callable(omega_des)  # a constant is not called per tick
    if const and (isinstance(omega_des, bool)
                  or not isinstance(omega_des, Real)
                  or not math.isfinite(omega_des)):
        raise ValueError(f"omega_des must be a finite number or a "
                         f"callable, got {omega_des!r}")

    radius, f_max = config.shell_radius_l, config.max_rotor_thrust
    kp, ki = control.KP, control.KI
    lo, hi = -control.INTEGRATOR_LIMIT, control.INTEGRATOR_LIMIT
    # steadystate.rolling_power on the docked cylinder's pairs
    n_pairs = steadystate.CYLINDER_PAIRS
    lever, rho2a, eta = steadystate._pair_terms(config, n_pairs)
    sqrt, copysign, ndarray = math.sqrt, math.copysign, np.ndarray
    step, new_tuple = _roll_step(config, dt), tuple.__new__

    phi = omega = position = energy = t = integ = 0.0
    w = float(omega_des) if const else 0.0
    states, powers, saturated = [SimState()], [0.0], [False]
    for i in range(1, steps + 1):
        if not const:
            setpoint = omega_des(t)
            if type(setpoint) is ndarray:  # unpacking yields numpy scalars
                setpoint = setpoint.tolist()
            try:  # the model has no x or z rate to track
                d_x, d_y, d_z = setpoint
                w, planar = float(d_y), float(d_x) == 0.0 == float(d_z)
            except (TypeError, ValueError):
                planar = False
            if not planar:
                raise ValueError(f"omega_des must give 3 numbers, x and z "
                                 f"exactly 0, got {setpoint!r}")
        # PI on the roll-rate error, the integrator clamped; min(max(...))
        # written out, as the builtin calls cost more
        error = w - omega
        integ += error * dt
        integ = lo if integ < lo else hi if integ > hi else integ
        tau = kp * error + ki * integ
        # a pure roll torque loads the pairs equally; beyond the thrust
        # limit it saturates with its sign (an infinite f too; NaN stays)
        f = abs(tau) / lever
        sat = f > f_max
        if sat:
            tau, f = copysign(lever * f_max, tau), f_max
        # rolling_power at the start-of-tick speed: aeropower.momentum_power
        # through one rotor per pair, on its closed-form edgewise inflow
        speed, nu = abs(omega * radius), 0.0
        if f != 0.0:
            rhs = f / rho2a
            q = speed * speed / (2.0 * rhs)
            nu = sqrt(rhs / (q + sqrt(1.0 + q * q)))
        # axial speed v * -0.0: a zero, or NaN at |v| = inf, as v sin(0) is
        power = n_pairs * (f * (nu - speed * 0.0) / eta)
        phi_new, omega = step(phi, omega, tau)
        position += (phi_new - phi) * radius
        phi = phi_new
        energy += power * dt
        t = i * dt
        if i % record_every == 0:
            states.append(new_tuple(SimState, (position, omega * radius, phi,
                                               omega, energy, t)))
            powers.append(power)
            saturated.append(sat)
    return Trajectory(states=states, power=powers, saturated=saturated)
