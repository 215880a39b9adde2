"""The planar closed loop written plainly, one tick at a time, as the
reference that ``dynamics.simulate_closed_loop``'s records are pinned to
bit for bit: ``roll_chain``'s PI torque and saturation flag, the reference
RK4 step ``dynamics._roll_step``, ``steadystate.pair_power`` at the
start-of-tick speed, and running sums of energy and position."""

import math

import numpy as np

from mobilitylab import control, dynamics, steadystate

A = 0.14


def roll_chain(max_rotor_thrust, dt):
    """The planar control tick: a PI step on the roll-rate error with the
    integrator clamped by min/max, then the pair force |tau| / lever of a
    pure roll torque on 4 pairs, saturated to copysign(lever f_max, tau)
    where it exceeds f_max. Returns tick(omega_des_y, omega_y) ->
    (torque_y, sat)."""
    lever, limit, integ = 4 * A / math.sqrt(2.0), control.INTEGRATOR_LIMIT, 0.0

    def tick(omega_des_y, omega_y):
        nonlocal integ
        e = float(omega_des_y) - omega_y
        integ = min(max(integ + e * dt, -limit), limit)
        torque = control.KP * e + control.KI * integ
        sat = abs(torque) / lever > max_rotor_thrust
        if sat:
            torque = math.copysign(lever * max_rotor_thrust, torque)
        return torque, sat

    return tick


def reference_loop(config, omega_des, ticks, dt):
    """``ticks`` ticks of the closed loop from rest, ``omega_des`` a
    constant or a callable t -> 3-vector read at the tick's start time.
    Returns (records, torques): the (ticks + 1, 8) rows the package records
    with record_every 1, and the torque each tick hands the roll step."""
    assert config.rotor_arm_length_a == A
    if not callable(omega_des):
        constant = (0.0, float(omega_des), 0.0)
        omega_des = lambda t: constant  # noqa: E731
    tick = roll_chain(config.max_rotor_thrust, dt)
    step = dynamics._roll_step(config, dt)
    lever = steadystate._pair_lever(config)
    radius = config.shell_radius_l
    phi = omega = position = energy = 0.0
    rows, torques = [[0.0] * 8], []
    for i in range(1, ticks + 1):
        torque, sat = tick(omega_des((i - 1) * dt)[1], omega)
        f = config.max_rotor_thrust if sat else abs(torque) / lever
        power = float(steadystate.pair_power(config, f, omega * radius))
        phi_new, omega = step(phi, omega, torque)
        position += (phi_new - phi) * radius
        energy += power * dt
        phi = phi_new
        torques.append(torque)
        rows.append([i * dt, position, omega * radius, omega, power, energy,
                     float(sat), phi])
    return np.array(rows), torques


def pinned_run(config, omega_des, ticks, dt, record_every=1):
    """Run the package and the reference loop; assert the package's
    records are the reference's recorded rows, bit for bit (the bytes tell
    -0.0 and NaN apart). Returns (trajectory, reference rows, torques)."""
    traj = dynamics.simulate_closed_loop(config, omega_des, ticks * dt, dt,
                                         record_every=record_every)
    rows, torques = reference_loop(config, omega_des, ticks, dt)
    want = rows[::record_every]
    assert traj.records.shape == want.shape
    assert traj.records.tobytes() == want.tobytes()
    return traj, rows, torques
