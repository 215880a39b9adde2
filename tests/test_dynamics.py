import math
from dataclasses import replace

import numpy as np
import pytest

from mobilitylab import control, dynamics, steadystate
from mobilitylab.params import ScenarioConfig, TerrainParams

CFG = ScenarioConfig()


def test_rolling_inertia_value():
    # solid cylinder: J = m l^2 / 2 with m = 1.6 kg, l = 0.2 m
    assert dynamics.rolling_inertia(CFG) == pytest.approx(0.032, rel=1e-12)


def test_dt_validation():
    state = dynamics.SimState()
    for dt in (0.0, -0.01, 0.02):
        with pytest.raises(ValueError):
            dynamics.step_rolling(state, 0.0, CFG, dt)


def test_rest_stays_at_rest_without_torque():
    # static gate: rolling resistance must not drive motion from rest
    state = dynamics.SimState()
    for _ in range(100):
        state = dynamics.step_rolling(state, 0.0, CFG, 0.01)
    assert state.roll_rate_omega == 0.0
    assert state.position_s == 0.0
    assert state.energy_consumed == 0.0


def test_uphill_rest_rolls_backwards_without_torque():
    uphill = replace(CFG, terrain=TerrainParams(0.01, 0.05))
    state = dynamics.SimState()
    state = dynamics.step_rolling(state, 0.0, uphill, 0.01)
    assert state.roll_rate_omega < 0


def test_steady_state_is_a_fixed_point():
    # hold the equilibrium torque at the equilibrium rate: stays put
    v = 0.12
    sol = steadystate.rolling_equilibrium(CFG, v)
    omega = v / 0.2
    # instantaneous drag area differs from the revolution average; pick the
    # roll angle where they coincide so the comparison is exact
    from mobilitylab import aeropower
    avg = steadystate.average_rolling_area(CFG)
    angles = np.linspace(0, math.pi / 2, 20001)
    areas = [aeropower.projected_area(CFG.vehicle, a, "rolling")
             for a in angles]
    phi = angles[int(np.argmin(np.abs(np.array(areas) - avg)))]
    accel = dynamics._rolling_rhs(CFG)(phi, omega, sol.required_torque)
    assert abs(accel) < 1e-4


def test_energy_accumulates_power():
    state = dynamics.SimState(roll_rate_omega=0.5)
    torque = 0.01
    dt = 0.01
    energies = [0.0]
    for _ in range(50):
        p = steadystate.rolling_power(
            CFG, torque, abs(state.roll_rate_omega * 0.2))
        new = dynamics.step_rolling(state, torque, CFG, dt)
        energies.append(energies[-1] + p * dt)
        state = new
    assert state.energy_consumed == pytest.approx(energies[-1], rel=1e-12)
    assert state.energy_consumed > 0


def test_rolling_power_matches_steady_state_module():
    v = 0.3
    sol = steadystate.rolling_equilibrium(CFG, v)
    p = steadystate.rolling_power(CFG, sol.required_torque, abs(v))
    assert p == pytest.approx(sol.total_electrical_power, rel=1e-12)


def test_step_flying_rejects_untrimmed_input():
    with pytest.raises(dynamics.TrimError):
        dynamics.step_flying(dynamics.SimState(), thrust=5.0, tilt=0.0,
                             config=CFG, dt=0.01)


def test_flying_equilibrium_holds_speed():
    v = 1.0
    sol = steadystate.flying_equilibrium(CFG, v)
    thrust = sol.total_thrust / CFG.num_agents
    state = dynamics.SimState(speed_v=v)
    for _ in range(100):
        state = dynamics.step_flying(state, thrust, sol.tilt_alpha, CFG, 0.01)
    assert state.speed_v == pytest.approx(v, abs=1e-9)
    assert state.position_s == pytest.approx(v * 1.0, rel=1e-9)
    assert state.energy_consumed == pytest.approx(
        sol.total_electrical_power / CFG.num_agents * 1.0, rel=1e-9)


def test_flying_accelerates_from_below_trim_speed():
    sol = steadystate.flying_equilibrium(CFG, 1.0)
    thrust = sol.total_thrust / CFG.num_agents
    state = dynamics.SimState(speed_v=0.5)
    state = dynamics.step_flying(state, thrust, sol.tilt_alpha, CFG, 0.01)
    assert state.speed_v > 0.5


def test_closed_loop_tracks_rate_command():
    traj = dynamics.simulate_closed_loop(CFG, omega_des=0.6, duration=30.0,
                                         dt=0.01)
    final = traj.states[-1]
    assert final.roll_rate_omega == pytest.approx(0.6, rel=0.02)
    assert not traj.saturated[-1]


def test_closed_loop_record_thinning():
    traj = dynamics.simulate_closed_loop(CFG, omega_des=0.5, duration=1.0,
                                         dt=0.01, record_every=10)
    assert len(traj.states) == 11  # initial state + 10 records
    assert len(traj.power) == len(traj.states) == len(traj.saturated)


def test_closed_loop_callable_setpoint():
    traj = dynamics.simulate_closed_loop(
        CFG, omega_des=lambda t: np.array([0.0, 0.2 + 0.1 * (t > 0.5), 0.0]),
        duration=1.0, dt=0.01)
    assert traj.states[-1].roll_rate_omega > 0.2


def test_trajectory_csv_rows():
    traj = dynamics.simulate_closed_loop(CFG, omega_des=0.5, duration=0.1,
                                         dt=0.01)
    rows = traj.to_csv_rows()
    assert len(rows) == len(traj.states)
    assert all(len(r) == len(dynamics.CSV_HEADER) for r in rows)
    times = [r[0] for r in rows]
    assert times == sorted(times)


def test_rk4_order_on_smooth_scenario():
    # smooth window: roll angle within (0, pi/2), omega bounded away from
    # the static gate, constant torque
    torque = 0.02
    t_end = 1.0

    def final_omega(dt):
        state = dynamics.SimState(roll_angle=0.2, roll_rate_omega=0.5)
        for _ in range(int(round(t_end / dt))):
            state = dynamics.step_rolling(state, torque, CFG, dt)
        assert 0 < state.roll_angle < math.pi / 2
        return state.roll_rate_omega

    e1 = abs(final_omega(0.008) - final_omega(0.004))
    e2 = abs(final_omega(0.004) - final_omega(0.002))
    order = math.log2(e1 / e2)
    assert order >= 3.5


def _numpy_tick_reference(config, omega_des, duration, dt, record_every):
    """The closed loop as it was written with numpy 3-vectors: np.clip PI,
    mixer inverse @ wrench, np.max saturation, then step_rolling. Returns
    the trajectory's CSV rows."""
    kp, ki = control.KP, control.KI
    limit = control.INTEGRATOR_LIMIT
    veh = config.vehicle
    mixer = control.mixer_matrix(veh.rotor_arm_length_a,
                                 veh.torque_constant_k_tau)
    c = veh.rotor_arm_length_a / math.sqrt(2.0)
    k_tau = veh.torque_constant_k_tau
    inverse = mixer.matrix_m.T / np.array([4.0, 4.0 * c ** 2, 4.0 * c ** 2,
                                           4.0 * k_tau ** 2])
    if not callable(omega_des):
        const = np.array([0.0, omega_des, 0.0])
        omega_des = lambda t: const  # noqa: E731
    radius = veh.shell_radius_l
    state = dynamics.SimState()
    integ = np.zeros(3)
    rows = [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0]]
    for i in range(int(round(duration / dt))):
        e = (np.asarray(omega_des(state.time), float)
             - np.array([0.0, state.roll_rate_omega, 0.0]))
        integ = np.clip(integ + e * dt, -limit, limit)
        torque = kp * e + ki * integ
        forces = inverse @ np.concatenate(([0.0], torque))
        peak = float(np.max(np.abs(forces)))
        sat = not peak <= veh.max_rotor_thrust
        if sat:
            forces = forces * (veh.max_rotor_thrust / peak)
        torque_y = float(mixer.matrix_m[2] @ forces)
        power = steadystate.rolling_power(
            config, torque_y, abs(state.roll_rate_omega * radius))
        state = dynamics.step_rolling(state, torque_y, config, dt)
        if (i + 1) % record_every == 0:
            rows.append([state.time, state.position_s, state.speed_v,
                         state.roll_rate_omega, power,
                         state.energy_consumed, int(sat)])
    return rows


SLOPED = replace(CFG, terrain=TerrainParams(0.03, math.radians(1.5)))
WEAK_ROTORS = replace(CFG, vehicle=replace(CFG.vehicle,
                                           max_rotor_thrust=0.1))


def _step_to_16(t):
    # the x integrator clamps at -limit, the y one at +limit after the step
    return np.array([-3.0, 16.0 if t >= 2.0 else 0.5, -0.3])


def _nan_after_3s(t):
    return (0.0, math.nan if t >= 3.0 else 0.8, 0.0)


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("config,omega_des", [
    (CFG, 0.6),
    (SLOPED, lambda t: np.array([0.3 * math.sin(t),
                                 0.5 + 0.2 * math.sin(0.7 * t),
                                 -0.1 * math.cos(t)])),
    (SLOPED, lambda t: (0.4, 1.0 + 0.5 * math.sin(2.0 * t), 0.05)),
    (SLOPED, _step_to_16),
    (WEAK_ROTORS, 1.0),
    (CFG, _nan_after_3s),
], ids=["constant", "xyz-array", "xyz-tuple", "saturating-step",
        "reduced-thrust", "nan-setpoint"])
def test_float_tick_matches_numpy_tick(config, omega_des, record_every):
    traj = dynamics.simulate_closed_loop(config, omega_des, duration=6.0,
                                         dt=0.01, record_every=record_every)
    got = np.array(traj.to_csv_rows(), float)
    want = np.array(_numpy_tick_reference(config, omega_des, 6.0, 0.01,
                                          record_every), float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[:, 6], want[:, 6])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_step_rolling_is_one_closed_loop_tick_bitwise():
    # the loop's tick and step_rolling share one RK4 step: driving
    # step_rolling with the loop's control tick reproduces every state,
    # inside the thrust limit and saturated
    dt = 0.005
    for config, omega_des in ((SLOPED, 1.2), (WEAK_ROTORS, 1.0)):
        traj = dynamics.simulate_closed_loop(config, omega_des, duration=2.0,
                                             dt=dt)
        veh = config.vehicle
        tick = control.rate_loop(
            control.mixer_matrix(veh.rotor_arm_length_a,
                                 veh.torque_constant_k_tau),
            veh.max_rotor_thrust, dt)
        state = dynamics.SimState()
        for want, want_power, want_sat in zip(
                traj.states[1:], traj.power[1:], traj.saturated[1:]):
            torque_y, sat = tick((0.0, omega_des, 0.0),
                                 state.roll_rate_omega)
            power = steadystate.rolling_power(
                config, torque_y,
                abs(state.roll_rate_omega * veh.shell_radius_l))
            state = dynamics.step_rolling(state, torque_y, config, dt)
            assert state == want
            assert power == want_power
            assert sat == want_sat
        assert any(traj.saturated) is (config is WEAK_ROTORS)


@pytest.mark.parametrize("omega_des", [
    0.7,
    lambda t: (0.1, 0.7 + 0.2 * math.sin(t), 0.0),
    lambda t: np.array([0.1, 0.7 + 0.2 * math.sin(t), 0.0]),
], ids=["constant", "tuple", "ndarray"])
def test_closed_loop_records_python_floats(omega_des):
    # the tick stays on Python floats whatever the setpoint's type
    traj = dynamics.simulate_closed_loop(CFG, omega_des, duration=0.5,
                                         dt=0.01)
    values = [*traj.power, *(x for st in traj.states for x in st)]
    assert {type(x) for x in values} == {float}


@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf,
    pytest.param(lambda t: (0.0, 1.0), id="wrong-length-callable"),
])
def test_closed_loop_rejects_non_finite_constant_setpoint(bad):
    with pytest.raises(ValueError, match="omega_des"):
        dynamics.simulate_closed_loop(CFG, bad, duration=1.0, dt=0.01)


@pytest.mark.parametrize("duration, record_every", [
    (1e-9, 1),      # rounds to zero ticks
    (0.004, 1),     # 0.4 of a tick rounds to zero
    (1.0, 1000),    # 100 ticks, none recorded
    (1.0, 0),
    (1.0, -30),
])
def test_closed_loop_rejects_runs_that_record_nothing(duration, record_every):
    with pytest.raises(ValueError, match="record_every"):
        dynamics.simulate_closed_loop(CFG, 0.5, duration, 0.01,
                                      record_every=record_every)


def test_closed_loop_records_exactly_record_every_ticks():
    traj = dynamics.simulate_closed_loop(CFG, 0.5, 1.0, 0.01,
                                         record_every=100)
    assert len(traj.states) == 2
    assert traj.states[-1].time == pytest.approx(1.0)
