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
setpoint's, at the tick's start time (i - 1) dt. The tick appends f, its
saturation flag and its end-of-tick roll angle and rate to ``array``
buffers, and builds no record.

Neither the power, the energy nor the position feeds back into the roll,
so they are formed per block of ``TICK_BLOCK`` ticks: one
``steadystate.pair_power`` call gives the block's powers at the
start-of-tick speeds (the tick's clamp to f_max is its own policy, so the
thrust limit that call applies masks none of them), and sequential
cumulative sums from the carried energy and position their energies and
positions, bit for bit the running sums a tick would keep. The block's
recorded ticks, i = k record_every, fill rows k of one preallocated
float64 array, eight values a row and no Python object per value; the
buffers then empty, so memory grows with the recorded ticks, not with the
run. ``Trajectory`` builds a ``SimState`` only when ``states`` is read.
The loop is the one place that steps the roll and charges energy; its
energy is the rectangle rule at the start-of-tick power, first order in
dt, like the zero-order-hold PI.
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


#: a ``SimState``'s fields' columns in a trajectory's records
_STATE_COLUMNS = [1, 2, 7, 3, 5, 0]


class _States(Sequence):
    """Read-only view of a trajectory's records as ``SimState``s of Python
    floats, each built when read: len, indices (negative too), slices (as
    lists), iteration and == with a list."""

    __slots__ = ("_records",)

    def __init__(self, records: np.ndarray):
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        rows = range(len(self))[i]  # IndexError past either end
        if isinstance(rows, range):
            return [self[j] for j in rows]
        return tuple.__new__(SimState,
                             self._records[rows, _STATE_COLUMNS].tolist())

    def __eq__(self, other):
        if not isinstance(other, (list, _States)):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run's records in one read-only (n, 8) float64 array, a row per
    recorded tick: the CSV's seven columns (time, position, speed, roll
    rate, power, energy, saturated as 0.0 or 1.0), then the roll angle.
    ``states`` is a ``_States`` view over them, O(1) per index; ``power``
    and ``saturated`` are lists of Python floats and bools copied out at
    their first read. Two trajectories are equal when their records are,
    bit for bit."""

    records: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.records.shape == other.records.shape
                and self.records.tobytes() == other.records.tobytes())

    @property
    def states(self) -> _States:
        return _States(self.records)

    @cached_property
    def power(self) -> list[float]:
        return self.records[:, 4].tolist()

    @cached_property
    def saturated(self) -> list[bool]:
        return self.records[:, 6].astype(bool).tolist()

    def to_csv_rows(self) -> np.ndarray:
        """The (n, 7) rows of ``CSV_HEADER``, a view of the records."""
        return self.records[:, :7]


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

    phi = omega = position = energy = integ = 0.0
    w = float(omega_des) if const else 0.0
    records = np.zeros((steps // record_every + 1, 8))  # row 0: t = 0
    # each block's pair forces and saturation flags, and its end-of-tick
    # roll angles and rates after the carried start-of-block ones
    forces, flags = array("d"), array("b")
    angles, rates = array("d", [phi]), array("d", [omega])
    push_f, push_sat = forces.append, flags.append
    push_phi, push_w = angles.append, rates.append
    for first in range(1, steps + 1, TICK_BLOCK):
        last = min(first + TICK_BLOCK, steps + 1)
        for i in range(first, last):
            if not const:
                setpoint = omega_des((i - 1) * dt)  # the tick's start time
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
            push_sat(sat)
            phi, omega = step(phi, omega, tau)
            push_phi(phi)
            push_w(omega)
        f_k, sat_k = np.frombuffer(forces), np.frombuffer(flags, np.int8)
        phi_k, w_k = np.frombuffer(angles), np.frombuffer(rates)
        # the block's powers in one call, at the start-of-tick speeds, and
        # its energies and positions summed in tick order from the carried
        # ones, as a running += sums them
        with np.errstate(invalid="ignore", over="ignore"):
            power = steadystate.pair_power(config, f_k, w_k[:-1] * radius)
            charged = np.cumsum(np.concatenate(([energy], power * dt)))[1:]
            moved = np.cumsum(np.concatenate(
                ([position], np.diff(phi_k) * radius)))[1:]
            energy, position = charged[-1], moved[-1]
            # the recorded ticks i = k record_every of the block, as rows k
            picks = slice(-first % record_every, None, record_every)
            rows = records[(first - 1) // record_every + 1:
                           (last - 1) // record_every + 1]
            rows[:, 0] = np.arange(first, last)[picks] * dt
            rows[:, 1] = moved[picks]
            rows[:, 2] = w_k[1:][picks] * radius
            rows[:, 3] = w_k[1:][picks]
            rows[:, 4] = power[picks]
            rows[:, 5] = charged[picks]
            rows[:, 6] = sat_k[picks]
            rows[:, 7] = phi_k[1:][picks]
        # a buffer empties only once no view exports it
        del f_k, sat_k, phi_k, w_k
        del forces[:], flags[:], angles[:-1], rates[:-1]
    records.flags.writeable = False
    return Trajectory(records)
