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
tau, whose pair force f = |tau| / lever on the cylinder's pairs saturates
beyond the thrust limit to f_max, tau = copysign(lever f_max, tau); its one
call is the RK4 step ``_roll_step`` builds once per run, plus a callable
setpoint's. The tick appends f and its start-of-tick roll rate to two
``array('d')`` buffers. A recorded tick, at t = i dt, appends its eight
values to one flat list, power and energy as placeholders, so it leaves
no object for the garbage collector to walk; a ``SimState`` is built only
when ``Trajectory.states`` is read.

The power never feeds back into the roll, so it is charged per block of
``TICK_BLOCK`` ticks: one ``steadystate.pair_power`` call gives the
block's powers, a sequential cumulative sum from the carried energy its
energies, bit for bit the running sum a tick would keep, and the block's
recorded rows take theirs. The buffers then empty, so memory grows with
the recorded ticks, not with the run. The loop is the one place that steps
the roll and charges energy; its energy is the rectangle rule at the
start-of-tick power, first order in dt, like the zero-order-hold PI.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from . import control, steadystate
from .params import DT_MAX, ScenarioConfig

#: rolling resistance is inactive below this roll rate, rad/s
OMEGA_STATIC = 1e-6
#: ticks whose power the closed loop charges in one array call
TICK_BLOCK = 2 ** 14


class SimState(NamedTuple):
    position_s: float = 0.0      # m along slope
    speed_v: float = 0.0         # m/s
    roll_angle: float = 0.0      # rad
    roll_rate_omega: float = 0.0  # rad/s
    energy_consumed: float = 0.0  # J
    time: float = 0.0            # s


class _States(Sequence):
    """Read-only view of a trajectory's records as ``SimState``s, each built
    when read: len, indices (negative too), slices (as lists), iteration
    and == with a list."""

    __slots__ = ("_records",)

    def __init__(self, records: list):
        self._records = records

    def __len__(self) -> int:
        return len(self._records) // 8

    def __getitem__(self, i):
        rows = range(len(self))[i]  # IndexError past either end
        if isinstance(rows, range):
            return [self[j] for j in rows]
        return tuple.__new__(SimState, self._records[8 * rows:8 * rows + 6])

    def __eq__(self, other):
        if not isinstance(other, (list, _States)):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True)
class Trajectory:
    """A run's records in one flat list, eight values per recorded tick: a
    ``SimState``'s six, then its power (W) and saturation flag. ``states``
    is a ``_States`` view over them, O(1) per index; ``power`` and
    ``saturated`` are lists copied out at their first read."""

    records: list[float | bool]

    @property
    def states(self) -> _States:
        return _States(self.records)

    @cached_property
    def power(self) -> list[float]:
        return self.records[6::8]

    @cached_property
    def saturated(self) -> list[bool]:
        return self.records[7::8]

    def to_csv_rows(self) -> list[list[float]]:
        # zip over one iterator eight times reads the records a row at a time
        return [[t, s, v, w, p, e, int(sat)] for s, v, _, w, e, t, p, sat
                in zip(*[iter(self.records)] * 8)]


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
    """PI roll-rate control -> pair force -> rolling step per tick, then
    the power and energy per block of ticks.

    ``omega_des`` is either a finite constant desired roll rate (rad/s) or a
    callable t -> body-rate 3-vector with x and z exactly 0 (the model rolls
    about y only). A run must record a state after t = 0: record_every is
    an integer in [1, round(duration / dt)].
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be finite and > 0, got "
                         f"{duration!r}")
    if not 0.0 < dt <= DT_MAX:
        raise ValueError(f"dt must be in (0, {DT_MAX}], got {dt!r}")
    steps = int(round(duration / dt))
    # else nothing after t = 0 is recorded
    if not (isinstance(record_every, Integral) and 1 <= record_every <= steps):
        raise ValueError(f"record_every must be an integer in [1, "
                         f"round(duration / dt) = {steps}], got "
                         f"{record_every!r}")
    const = not callable(omega_des)  # a constant is not called per tick
    if const and (isinstance(omega_des, bool)
                  or not isinstance(omega_des, Real)
                  or not math.isfinite(omega_des)):
        raise ValueError(f"omega_des must be a finite number or a "
                         f"callable, got {omega_des!r}")

    radius, f_max = config.shell_radius_l, config.max_rotor_thrust
    kp, ki = control.KP, control.KI
    lo, hi = -control.INTEGRATOR_LIMIT, control.INTEGRATOR_LIMIT
    lever = steadystate._pair_lever(config)
    copysign, ndarray = math.copysign, np.ndarray
    step = _roll_step(config, dt)

    phi = omega = position = energy = t = integ = 0.0
    w = float(omega_des) if const else 0.0
    records = [*SimState(), 0.0, False]
    record = records.extend
    forces, rates = array("d"), array("d")
    push_f, push_w = forces.append, rates.append
    for first in range(1, steps + 1, TICK_BLOCK):
        row = len(records)  # the block's first record
        for i in range(first, min(first + TICK_BLOCK, steps + 1)):
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
                    raise ValueError(f"omega_des must give 3 numbers, x and "
                                     f"z exactly 0, got {setpoint!r}")
            # PI on the roll-rate error, the integrator clamped;
            # min(max(...)) written out, as the builtin calls cost more
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
            push_f(f)
            push_w(omega)  # the power is charged at the start-of-tick speed
            phi_new, omega = step(phi, omega, tau)
            position += (phi_new - phi) * radius
            phi = phi_new
            t = i * dt
            if i % record_every == 0:  # power and energy filled in below
                record((position, omega * radius, phi, omega, 0.0, t, 0.0,
                        sat))
        # the block's powers in one call, and its energies summed in tick
        # order from the carried energy, as a running += sums them
        with np.errstate(invalid="ignore", over="ignore"):
            power = steadystate.pair_power(
                config, np.frombuffer(forces), np.frombuffer(rates) * radius)
            charged = np.cumsum(np.concatenate(([energy], power * dt)))[1:]
        energy = float(charged[-1])
        skip = -first % record_every  # offset of its first recorded tick
        records[row + 4::8] = charged[skip::record_every].tolist()
        records[row + 6::8] = power[skip::record_every].tolist()
        del forces[:], rates[:]
    return Trajectory(records)
