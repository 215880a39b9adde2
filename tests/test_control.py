import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mobilitylab import control

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


def _tick(max_rotor_thrust=math.inf, dt=0.01):
    return control.rate_loop(control.mixer_matrix(A, K_TAU),
                             max_rotor_thrust, dt)


def test_pi_controller_proportional_term():
    tick = _tick()
    torque_y, sat = tick(np.array([0, 1.0, 0]), 0.0)
    # tau = Kp e + Ki I with I = e dt
    assert not sat
    assert torque_y == pytest.approx(0.4 * 1.0 + 0.2 * 0.01, rel=1e-12)
    # at zero error only the integrator acts: tau = Ki I
    torque_y, _ = tick((0.0, 0.5, 0.0), 0.5)
    assert torque_y == pytest.approx(0.2 * 0.01, rel=1e-12)


def test_pi_integrator_clamps():
    for sign in (1.0, -1.0):
        tick = _tick()
        for _ in range(2000):
            tick((0.0, 10.0 * sign, 0.0), 0.0)
        torque_y, _ = tick((0.0, 0.0, 0.0), 0.0)
        assert torque_y == pytest.approx(
            sign * control.KI * control.INTEGRATOR_LIMIT, rel=1e-12)


def test_pi_rejects_bad_dt():
    for dt in (0.0, -0.01):
        with pytest.raises(ValueError, match="dt"):
            _tick(dt=dt)


@pytest.mark.parametrize("omega_des", [(0.0, 1.0), (0.0, 1.0, 0.0, 0.0),
                                       np.zeros(2), []])
def test_rate_loop_rejects_wrong_length_setpoint(omega_des):
    with pytest.raises(ValueError, match="omega_des"):
        _tick()(omega_des, 0.0)


def test_saturation_scales_uniformly(mixer):
    # a pure tau_y command loads all four pairs equally, |f| = tau / (4 c):
    # saturated, the realised torque is 4 c f_max with the command's sign
    c = A / math.sqrt(2.0)
    for sign in (1.0, -1.0):
        torque_y, sat = _tick(0.5)((0.0, 10.0 * sign, 0.0), 0.0)
        assert sat
        assert torque_y == pytest.approx(sign * 4 * c * 0.5, rel=1e-12)
    # a mixed command is scaled by f_max / peak pair force
    command = (0.4 * 2.0 + 0.2 * 0.02, 0.4 * 3.0 + 0.2 * 0.03, 0.0)
    peak = max(map(abs, control.allocate(command, mixer)))
    torque_y, sat = _tick(0.5)((2.0, 3.0, 0.0), 0.0)
    assert sat
    assert torque_y == pytest.approx(command[1] * 0.5 / peak, rel=1e-12)


def test_saturation_noop_inside_limit():
    torque_y, sat = _tick(8.0)((0.3, -1.0, 0.05), 0.0)
    assert not sat
    assert torque_y == pytest.approx(0.4 * -1.0 + 0.2 * -0.01, rel=1e-12)


def _reference_chain(setpoints, omegas, max_rotor_thrust, dt):
    """The control tick as three functions: a PI step on 3-tuples, the
    allocation, and a uniform saturation of the pair forces; then the roll
    torque the forces realise."""
    mixer = control.mixer_matrix(A, K_TAU)
    row = mixer.matrix_m[2].tolist()
    limit = control.INTEGRATOR_LIMIT

    def pi_rate_control(omega_des, omega_meas, integ):
        e = [float(d) - float(m) for d, m in zip(omega_des, omega_meas)]
        integ = [min(max(i + ei * dt, -limit), limit)
                 for i, ei in zip(integ, e)]
        return ([control.KP * ei + control.KI * i
                 for ei, i in zip(e, integ)], integ)

    def saturate_pair_forces(forces):
        peak = max(map(abs, forces))
        if peak <= max_rotor_thrust:
            return forces, False
        scale = max_rotor_thrust / peak
        return tuple(f * scale for f in forces), True

    integ, out = [0.0, 0.0, 0.0], []
    for omega_des, omega_y in zip(setpoints, omegas):
        torque, integ = pi_rate_control(list(omega_des), (0.0, omega_y, 0.0),
                                        integ)
        forces, sat = saturate_pair_forces(control.allocate(torque, mixer))
        out.append((row[0] * forces[0] + row[1] * forces[1]
                    + row[2] * forces[2] + row[3] * forces[3], sat))
    return out


_rates = st.floats(-20.0, 20.0) | st.sampled_from([math.nan, math.inf,
                                                  -math.inf])


@given(setpoints=st.lists(st.tuples(_rates, _rates, _rates), min_size=1,
                          max_size=40),
       omegas=st.lists(st.floats(-5.0, 5.0), min_size=40, max_size=40),
       max_rotor_thrust=st.sampled_from([0.05, 0.5, 8.0]),
       as_array=st.booleans())
def test_rate_loop_equals_reference_chain(setpoints, omegas,
                                          max_rotor_thrust, as_array):
    tick = _tick(max_rotor_thrust, 0.01)
    want = _reference_chain(setpoints, omegas, max_rotor_thrust, 0.01)
    for (w_torque, w_sat), omega_des, omega_y in zip(want, setpoints, omegas):
        torque_y, sat = tick(np.array(omega_des) if as_array else omega_des,
                             omega_y)
        assert type(torque_y) is float
        assert sat is w_sat
        assert (torque_y == w_torque
                or math.isnan(torque_y) and math.isnan(w_torque))
