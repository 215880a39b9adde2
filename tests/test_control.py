import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mobilitylab import control, dynamics, steadystate
from mobilitylab.params import ScenarioConfig

A = 0.14
K_TAU = 0.016


@pytest.fixture
def mixer():
    return control.mixer_matrix(A, K_TAU)


def test_mixer_determinant(mixer):
    c = A / math.sqrt(2.0)
    assert abs(np.linalg.det(mixer.matrix_m)) == pytest.approx(
        16 * c ** 2 * K_TAU, rel=1e-10)


def test_mixer_inverse_is_exact(mixer):
    ident = mixer.matrix_m @ np.array(mixer.inverse_rows)
    assert np.allclose(ident, np.eye(4), atol=1e-13)


def test_mixer_rejects_bad_geometry():
    with pytest.raises(ValueError):
        control.mixer_matrix(0.0, K_TAU)
    with pytest.raises(ValueError):
        control.mixer_matrix(A, -1.0)


def test_pure_pitch_torque_allocation(mixer):
    # tau_y = 0.1 N m, zero thrust: pair forces +-tau/(4c)
    forces = control.allocate(np.array([0.0, 0.1, 0.0]), mixer)
    c = A / math.sqrt(2.0)
    expect = 0.1 / (4 * c)
    assert np.allclose(np.abs(forces), expect, rtol=1e-12)
    assert np.allclose(sorted(forces), [-expect, -expect, expect, expect])
    # zero net thrust and zero roll/yaw torque
    wrench = mixer.matrix_m @ forces
    assert np.allclose(wrench, [0.0, 0.0, 0.1, 0.0], atol=1e-14)


@given(tx=st.floats(-1, 1), ty=st.floats(-1, 1), tz=st.floats(-0.05, 0.05))
def test_allocation_round_trip(tx, ty, tz):
    mixer = control.mixer_matrix(A, K_TAU)
    forces = control.allocate(np.array([tx, ty, tz]), mixer)
    wrench = mixer.matrix_m @ forces
    assert np.allclose(wrench, [0.0, tx, ty, tz], rtol=1e-12, atol=1e-12)


def _config(max_rotor_thrust):
    cfg = ScenarioConfig()
    assert (cfg.vehicle.rotor_arm_length_a,
            cfg.vehicle.torque_constant_k_tau) == (A, K_TAU)
    return replace(cfg, vehicle=replace(cfg.vehicle,
                                        max_rotor_thrust=max_rotor_thrust))


def _ticks(calls, max_rotor_thrust=math.inf, dt=0.01):
    """(torque_y, saturated) of each tick of ``simulate_closed_loop`` over
    ``calls``, a list of (omega_des, omega_y): the tick's setpoint and
    measured roll rate, the first one 0 (the loop starts from rest). The
    roll step is replaced by one that records the torque the loop hands it
    and returns the next tick's measured rate."""
    setpoints = iter([omega_des for omega_des, _ in calls])
    rates = [omega_y for _, omega_y in calls] + [0.0]
    torques = []

    def roll_step(config, dt):
        def step(phi, omega, torque_y):
            assert omega == rates[len(torques)]
            torques.append(torque_y)
            return phi, rates[len(torques)]
        return step

    assert rates[0] == 0.0
    with mock.patch.object(dynamics, "_roll_step", roll_step):
        traj = dynamics.simulate_closed_loop(
            _config(max_rotor_thrust), lambda t: next(setpoints),
            duration=len(calls) * dt, dt=dt)
    assert len(torques) == len(calls)
    return list(zip(torques, traj.saturated[1:]))


def test_pi_controller_proportional_term():
    (torque_y, sat), (torque_2, _) = _ticks([(np.array([0, 1.0, 0]), 0.0),
                                             ((0.0, 0.5, 0.0), 0.5)])
    # tau = Kp e + Ki I with I = e dt
    assert not sat
    assert torque_y == pytest.approx(0.4 * 1.0 + 0.2 * 0.01, rel=1e-12)
    # at zero error only the integrator acts: tau = Ki I
    assert torque_2 == pytest.approx(0.2 * 0.01, rel=1e-12)


def test_pi_integrator_clamps():
    for sign in (1.0, -1.0):
        ticks = _ticks([((0.0, 10.0 * sign, 0.0), 0.0)] * 2000
                       + [((0.0, 0.0, 0.0), 0.0)])
        torque_y, _ = ticks[-1]
        assert torque_y == pytest.approx(
            sign * control.KI * control.INTEGRATOR_LIMIT, rel=1e-12)


def test_pi_rejects_bad_dt():
    for dt in (0.0, -0.01):
        with pytest.raises(ValueError, match="dt"):
            dynamics.simulate_closed_loop(_config(math.inf), 1.0,
                                          duration=0.01, dt=dt)


@pytest.mark.parametrize("omega_des", [(0.0, 1.0), (0.0, 1.0, 0.0, 0.0),
                                       np.zeros(2), []])
def test_rate_loop_rejects_wrong_length_setpoint(omega_des):
    with pytest.raises(ValueError, match="omega_des"):
        _ticks([(omega_des, 0.0)])


def test_saturation_scales_uniformly(mixer):
    # a pure tau_y command loads all four pairs equally, |f| = tau / (4 c):
    # saturated, the realised torque is 4 c f_max with the command's sign
    c = A / math.sqrt(2.0)
    for sign in (1.0, -1.0):
        [(torque_y, sat)] = _ticks([((0.0, 10.0 * sign, 0.0), 0.0)], 0.5)
        assert sat
        assert torque_y == pytest.approx(sign * 4 * c * 0.5, rel=1e-12)
    # a mixed command is scaled by f_max / peak pair force
    command = (0.4 * 2.0 + 0.2 * 0.02, 0.4 * 3.0 + 0.2 * 0.03, 0.0)
    peak = max(map(abs, control.allocate(command, mixer)))
    [(torque_y, sat)] = _ticks([((2.0, 3.0, 0.0), 0.0)], 0.5)
    assert sat
    assert torque_y == pytest.approx(command[1] * 0.5 / peak, rel=1e-12)


def test_saturation_noop_inside_limit():
    [(torque_y, sat)] = _ticks([((0.3, -1.0, 0.05), 0.0)], 8.0)
    assert not sat
    assert torque_y == pytest.approx(0.4 * -1.0 + 0.2 * -0.01, rel=1e-12)


def _reference_chain(max_rotor_thrust, dt):
    """The control tick as three functions: a PI step on 3-tuples, the
    allocation (of the torque's direction where the pair forces overflow),
    and a uniform saturation of the pair forces; then the roll torque the
    forces realise. Returns tick(omega_des, omega_y) -> (torque_y, sat)."""
    mixer = control.mixer_matrix(A, K_TAU)
    row = mixer.matrix_m[2].tolist()
    limit = control.INTEGRATOR_LIMIT
    integ = [0.0, 0.0, 0.0]

    def pi_rate_control(omega_des, omega_meas, integ):
        e = [float(d) - float(m) for d, m in zip(omega_des, omega_meas)]
        integ = [min(max(i + ei * dt, -limit), limit)
                 for i, ei in zip(integ, e)]
        return ([control.KP * ei + control.KI * i
                 for ei, i in zip(e, integ)], integ)

    def to_limit(forces):
        scale = max_rotor_thrust / max(map(abs, forces))
        return tuple(f * scale for f in forces)

    def saturate_pair_forces(forces):
        if max(map(abs, forces)) <= max_rotor_thrust:
            return forces, False
        return to_limit(forces), True

    def tick(omega_des, omega_y):
        nonlocal integ
        torque, integ = pi_rate_control(list(omega_des), (0.0, omega_y, 0.0),
                                        integ)
        forces = control.allocate(torque, mixer)
        if max(map(abs, forces)) == math.inf:
            # the forces overflow: the limit forces of the torque direction
            big = max(map(abs, torque))
            forces, sat = to_limit(control.allocate([t / big for t in torque],
                                                    mixer)), True
        else:
            forces, sat = saturate_pair_forces(forces)
        return (row[0] * forces[0] + row[1] * forces[1]
                + row[2] * forces[2] + row[3] * forces[3], sat)

    return tick


def _reference_loop(config, setpoints, dt):
    """CSV rows of the closed loop as a chain of calls: the reference
    control tick, ``steadystate.rolling_power`` at the start-of-tick speed,
    then one ``dynamics._roll_step`` step."""
    tick = _reference_chain(config.vehicle.max_rotor_thrust, dt)
    step = dynamics._roll_step(config, dt)
    radius = config.vehicle.shell_radius_l
    phi = omega = position = energy = t = 0.0
    rows = [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0]]
    for omega_des in setpoints:
        torque_y, sat = tick(omega_des, omega)
        power = float(steadystate.rolling_power(config, torque_y,
                                                abs(omega * radius)))
        phi_new, omega = step(phi, omega, torque_y)
        position += (phi_new - phi) * radius
        phi = phi_new
        energy += power * dt
        t += dt
        rows.append([t, position, omega * radius, omega, power, energy,
                     int(sat)])
    return rows


def _same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        np.float64(a).tobytes() == np.float64(b).tobytes())


_rates = st.floats(-20.0, 20.0) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e300, -1.79e308, 1.79e308])


@given(setpoints=st.lists(st.tuples(_rates, _rates, _rates), min_size=1,
                          max_size=40),
       max_rotor_thrust=st.sampled_from([0.05, 0.5, 8.0]),
       as_array=st.booleans())
def test_closed_loop_equals_reference_chain(setpoints, max_rotor_thrust,
                                            as_array):
    # the loop's written-out PI law, allocation, saturation and rotor power
    # equal the reference chain, control.allocate and rolling_power, bit for
    # bit, tick by tick along the real roll
    config, dt = _config(max_rotor_thrust), 0.01
    sequence = iter([np.array(sp) if as_array else sp for sp in setpoints])
    traj = dynamics.simulate_closed_loop(config, lambda t: next(sequence),
                                         duration=len(setpoints) * dt, dt=dt)
    got = traj.to_csv_rows()
    want = _reference_loop(config, setpoints, dt)
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert type(got_row[4]) is float
        assert got_row[6] == want_row[6]
        assert all(map(_same_bits, got_row[:6], want_row[:6]))


@pytest.mark.parametrize("max_rotor_thrust, setpoints", [
    (8.0, [(0.0, 0.04 * k, 0.0) for k in range(600)]),
    (0.5, [(0.2, 4.0 + 3.0 * math.sin(0.02 * k), -0.1) for k in range(600)]),
    (8.0, [(-3.0, 16.0 if k >= 200 else 0.5, -0.3) for k in range(600)]),
], ids=["ramp", "sine-saturating", "step-to-16"])
def test_closed_loop_equals_reference_chain_at_speed(max_rotor_thrust,
                                                     setpoints):
    # long runs reach roll speeds (beyond 0.5 m/s) where each rounding of
    # the edgewise inflow shows in the power
    config, dt = _config(max_rotor_thrust), 0.01
    sequence = iter(setpoints)
    traj = dynamics.simulate_closed_loop(config, lambda t: next(sequence),
                                         duration=len(setpoints) * dt, dt=dt)
    want = _reference_loop(config, setpoints, dt)
    assert max(row[2] for row in want) > 0.5
    assert (np.array(traj.to_csv_rows(), float).tobytes()
            == np.array(want, float).tobytes())
