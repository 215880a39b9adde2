import math
import sys
import warnings
from fractions import Fraction
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


@pytest.mark.parametrize("a, k_tau", [(0.14, 1e-200), (1e-160, K_TAU),
                                      (1e-160, 1e-200), (A, K_TAU)])
def test_mixer_inverse_is_finite_and_exact_at_any_scale(a, k_tau):
    # M^-1 holds 1/(4 s) for row scales s = (1, c, c, k_tau): no s^2 to
    # underflow. Each entry of M @ M^-1 sums four products of one
    # magnitude, so its error is a few ulps of that magnitude, not of 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixer = control.mixer_matrix(a, k_tau)
        m, inverse = mixer.matrix_m, np.array(mixer.inverse_rows)
        assert np.isfinite(inverse).all()
        scale = np.abs(m) @ np.abs(inverse)
        error = np.abs(m @ inverse - np.eye(4))
    assert (error <= 8 * np.finfo(float).eps * scale).all()
    # every entry of M^-1 is +-1/(4 s) of its column's row scale exactly
    c = a / math.sqrt(2.0)
    assert np.array_equal(np.abs(inverse),
                          np.tile(1.0 / (4.0 * np.array([1.0, c, c, k_tau])),
                                  (4, 1)))
    assert np.array_equal(np.sign(inverse), np.sign(m.T))


@given(tx=st.floats(-1, 1), ty=st.floats(-1, 1), tz=st.floats(-0.05, 0.05))
def test_allocation_round_trip(tx, ty, tz):
    mixer = control.mixer_matrix(A, K_TAU)
    forces = control.allocate(np.array([tx, ty, tz]), mixer)
    wrench = mixer.matrix_m @ forces
    assert np.allclose(wrench, [0.0, tx, ty, tz], rtol=1e-12, atol=1e-12)


def _config(max_rotor_thrust):
    cfg = ScenarioConfig()
    assert cfg.rotor_arm_length_a == A
    assert not hasattr(cfg, "torque_constant_k_tau")
    return replace(cfg, max_rotor_thrust=max_rotor_thrust)


def _ticks(calls, max_rotor_thrust=sys.float_info.max, dt=0.01):
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
            dynamics.simulate_closed_loop(_config(sys.float_info.max), 1.0,
                                          duration=0.01, dt=dt)


@pytest.mark.parametrize("omega_des", [(0.0, 1.0), (0.0, 1.0, 0.0, 0.0),
                                       np.zeros(2), [], 1.0, None,
                                       ("0", "1", "x"), (0.0, 1j, 0.0)])
def test_rate_loop_rejects_wrong_length_setpoint(omega_des):
    with pytest.raises(ValueError, match="omega_des"):
        _ticks([(omega_des, 0.0)])


def test_saturation_scales_uniformly():
    # a pure roll command loads all four pairs equally, |f| = tau / (4 c):
    # saturated, the realised torque is 4 c f_max with the command's sign,
    # as scaling the four pair forces uniformly into the limit gives
    c = A / math.sqrt(2.0)
    for sign in (1.0, -1.0):
        [(torque_y, sat)] = _ticks([((0.0, 10.0 * sign, 0.0), 0.0)], 0.5)
        assert sat
        assert torque_y == pytest.approx(sign * 4 * c * 0.5, rel=1e-12)


def test_saturation_noop_inside_limit():
    [(torque_y, sat)] = _ticks([((0.0, -1.0, 0.0), 0.0)], 8.0)
    assert not sat
    assert torque_y == pytest.approx(0.4 * -1.0 + 0.2 * -0.01, rel=1e-12)


def _roll_chain(max_rotor_thrust, dt):
    """The planar control tick written plainly: a PI step on the roll-rate
    error with the integrator clamped by min/max, then the pair force
    |tau| / lever of a pure roll torque on 4 pairs, saturated to
    copysign(lever f_max, tau) where it exceeds f_max. Returns
    tick(omega_des_y, omega_y) -> (torque_y, sat)."""
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


def _same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        np.float64(a).tobytes() == np.float64(b).tobytes())


def _check_against_roll_chain(config, setpoints, dt):
    """Run the loop along the real roll, with each setpoint in turn, and
    check each tick's roll torque (the one handed to the roll step) and
    saturation flag against the roll chain bit for bit, and its recorded
    power bit for bit against ``steadystate.pair_power`` at the
    start-of-tick speed and at the pair force |torque| / lever inside the
    thrust limit, f_max itself where the tick saturates. Returns the CSV
    rows."""
    roll_step, handed = dynamics._roll_step, []

    def recording_roll_step(config, dt):
        step = roll_step(config, dt)

        def recorded(phi, omega, torque_y):
            handed.append((omega, torque_y))
            return step(phi, omega, torque_y)
        return recorded

    sequence = iter(setpoints)
    with mock.patch.object(dynamics, "_roll_step", recording_roll_step):
        traj = dynamics.simulate_closed_loop(config, lambda t: next(sequence),
                                             duration=len(setpoints) * dt,
                                             dt=dt)
    rows = traj.to_csv_rows()
    tick = _roll_chain(config.max_rotor_thrust, dt)
    radius = config.shell_radius_l
    assert len(handed) == len(setpoints) == len(rows) - 1
    assert rows.dtype == np.float64
    for omega_des, (omega, torque_y), row, charged in zip(
            setpoints, handed, rows[1:], traj.power[1:]):
        want, sat = tick(omega_des[1], omega)
        assert row[6] == sat
        assert _same_bits(torque_y, want)
        assert type(charged) is float and _same_bits(charged, row[4])
        f = (config.max_rotor_thrust if sat
             else abs(torque_y) / steadystate._pair_lever(config))
        power = steadystate.pair_power(config, f, abs(omega * radius))
        assert _same_bits(row[4], float(power))
    return rows


_rates = st.floats(-20.0, 20.0) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e300, -1.79e308, 1.79e308])


@given(setpoints=st.lists(_rates, min_size=1, max_size=40),
       max_rotor_thrust=st.sampled_from([0.05, 0.5, 8.0]),
       as_array=st.booleans())
def test_closed_loop_equals_reference_chain(setpoints, max_rotor_thrust,
                                            as_array):
    # the loop's PI law, saturation and rotor power deliver the roll
    # chain's torque and saturation flag bit for bit, tick by tick along
    # the real roll
    _check_against_roll_chain(
        _config(max_rotor_thrust),
        [np.array([0.0, w, 0.0]) if as_array else (0.0, w, 0.0)
         for w in setpoints], 0.01)


@pytest.mark.parametrize("max_rotor_thrust, setpoints", [
    (8.0, [(0.0, 0.04 * k, 0.0) for k in range(600)]),
    (0.5, [(0.0, 4.0 + 3.0 * math.sin(0.02 * k), 0.0) for k in range(600)]),
    (8.0, [(0.0, 16.0 if k >= 200 else 0.5, 0.0) for k in range(600)]),
], ids=["ramp", "sine-saturating", "step-to-16"])
def test_closed_loop_equals_reference_chain_at_speed(max_rotor_thrust,
                                                     setpoints):
    # long runs reach roll speeds (beyond 0.5 m/s) where each rounding of
    # the edgewise inflow shows in the power
    rows = _check_against_roll_chain(_config(max_rotor_thrust), setpoints,
                                     0.01)
    assert max(row[2] for row in rows) > 0.5


_any_torque = st.floats(allow_nan=True, allow_infinity=True)


@given(torque=st.tuples(_any_torque, _any_torque, _any_torque))
def test_allocate_is_the_sign_pattern_of_the_inverse_rows(torque):
    # allocate's -X-Y-Z, X-Y+Z, X+Y-Z, -X+Y+Z equal M^-1's rows times
    # (0, torque) bit for bit, and in exact arithmetic the peak pair force
    # is |X| + |Y| + |Z|
    mixer = control.mixer_matrix(A, K_TAU)
    t_x, t_y, t_z = torque
    rows = tuple(b * t_x + c * t_y + d * t_z
                 for _, b, c, d in mixer.inverse_rows)
    assert all(map(_same_bits, control.allocate(torque, mixer), rows))
    if all(map(math.isfinite, torque)):
        exact = [Fraction(x) for x in torque]
        forces = [sum(Fraction(g) * t for g, t in zip(row[1:], exact))
                  for row in mixer.inverse_rows]
        diagonal = (mixer.inverse_rows[k][k] for k in (1, 2, 3))
        x, y, z = (Fraction(g) * t for g, t in zip(diagonal, exact))
        assert max(map(abs, forces)) == abs(x) + abs(y) + abs(z)
