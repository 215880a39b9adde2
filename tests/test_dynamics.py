import gc
import math
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mobilitylab import aeropower, control, dynamics, steadystate
from mobilitylab.params import EARTH, ScenarioConfig

CFG = ScenarioConfig()


def test_rolling_inertia_value():
    # solid cylinder: J = m l^2 / 2 with m = 1.6 kg, l = 0.2 m
    assert dynamics.rolling_inertia(CFG) == pytest.approx(0.032, rel=1e-12)


def test_dt_validation():
    for dt in (0.0, -0.01, 0.02):
        with pytest.raises(ValueError, match="dt must be in"):
            dynamics.simulate_closed_loop(CFG, 0.0, duration=1.0, dt=dt)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
def test_duration_validation(duration):
    with pytest.raises(ValueError, match="duration must be finite and > 0"):
        dynamics.simulate_closed_loop(CFG, 0.0, duration=duration, dt=0.01)


def test_rest_stays_at_rest_without_torque():
    # a zero setpoint from rest is zero error, so zero torque on every tick;
    # static gate: rolling resistance must not drive motion from rest
    traj = dynamics.simulate_closed_loop(CFG, 0.0, duration=1.0, dt=0.01)
    state = traj.states[-1]
    assert state.roll_rate_omega == 0.0
    assert state.position_s == 0.0
    assert state.energy_consumed == 0.0


def test_uphill_rest_rolls_backwards_without_torque():
    # zero error gives zero torque on the first tick
    uphill = replace(CFG, rolling_resistance_crr=0.01, slope_theta=0.05)
    traj = dynamics.simulate_closed_loop(uphill, 0.0, duration=0.01,
                                         dt=0.01)
    assert traj.power[1] == 0.0
    assert traj.states[1].roll_rate_omega < 0


def test_steady_state_is_a_fixed_point():
    # hold the equilibrium torque at the equilibrium rate: stays put
    v = 0.12
    torque = steadystate.rolling_state(CFG, v).torque
    omega = v / 0.2
    # instantaneous drag area differs from the revolution average; pick the
    # roll angle where they coincide so the comparison is exact
    avg = steadystate.average_rolling_area(CFG)
    angles = np.linspace(0, math.pi / 2, 20001)
    areas = [aeropower.projected_area(CFG, a, "rolling")
             for a in angles]
    phi = angles[int(np.argmin(np.abs(np.array(areas) - avg)))]
    dt = 1e-6
    _, omega_new = dynamics._roll_step(CFG, dt)(phi, omega, torque)
    assert abs(omega_new - omega) / dt < 1e-4


def test_rolling_power_matches_steady_state_module():
    v = 0.3
    state = steadystate.rolling_state(CFG, v)
    p = steadystate.pair_power(
        CFG, abs(state.torque) / steadystate._pair_lever(CFG), abs(v))
    assert p == pytest.approx(state.power, rel=1e-12)


def test_closed_loop_tracks_rate_command():
    traj = dynamics.simulate_closed_loop(CFG, omega_des=0.6, duration=30.0,
                                         dt=0.01)
    final = traj.states[-1]
    assert final.roll_rate_omega == pytest.approx(0.6, rel=0.02)
    assert not traj.saturated[-1]


def test_closed_loop_record_thinning():
    # record_every = k only thins the records: the initial state and every
    # k-th record of the full run, bit for bit, with that tick's power and
    # saturation, inside the thrust limit and saturated
    full = dynamics.simulate_closed_loop(SLOPED, _step_to_16, duration=3.0,
                                         dt=0.01)
    assert any(full.saturated) and not all(full.saturated)
    for k in (2, 7, 10, 300):
        thin = dynamics.simulate_closed_loop(SLOPED, _step_to_16,
                                             duration=3.0, dt=0.01,
                                             record_every=k)
        assert len(thin.states) == 1 + 300 // k
        assert thin.states == full.states[::k]
        assert thin.power == full.power[::k]
        assert thin.saturated == full.saturated[::k]


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
        step = dynamics._roll_step(CFG, dt)
        phi, omega = 0.2, 0.5
        for _ in range(int(round(t_end / dt))):
            phi, omega = step(phi, omega, torque)
        assert 0 < phi < math.pi / 2
        return omega

    e1 = abs(final_omega(0.008) - final_omega(0.004))
    e2 = abs(final_omega(0.004) - final_omega(0.002))
    order = math.log2(e1 / e2)
    assert order >= 3.5


def _numpy_tick_reference(config, omega_des, duration, dt, record_every):
    """The planar closed loop written with numpy: an np.clip PI on the roll
    rate, np.copysign saturation of the pure roll torque at the pair-force
    limit, array pair_power at |torque| / lever (without the limit: a
    saturated torque's misses f_max by an ulp) and one RK4 step of the roll,
    at t = i dt. Returns the trajectory's CSV rows."""
    kp, ki = control.KP, control.KI
    limit = control.INTEGRATOR_LIMIT
    lever = 4 * config.rotor_arm_length_a / math.sqrt(2.0)
    unlimited = replace(config, max_rotor_thrust=sys.float_info.max)
    if not callable(omega_des):
        const = np.array([0.0, omega_des, 0.0])
        omega_des = lambda t: const  # noqa: E731
    radius = config.shell_radius_l
    step = dynamics._roll_step(config, dt)
    phi = omega = position = energy = t = integ = 0.0
    rows = [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0]]
    for i in range(1, int(round(duration / dt)) + 1):
        w_x, w_y, w_z = np.asarray(omega_des(t), float)
        assert w_x == w_z == 0.0
        e = w_y - omega
        integ = float(np.clip(integ + e * dt, -limit, limit))
        torque = float(kp * e + ki * integ)
        sat = bool(abs(torque) / lever > config.max_rotor_thrust)
        if sat:
            torque = float(np.copysign(lever * config.max_rotor_thrust,
                                       torque))
        power = float(steadystate.pair_power(
            unlimited, abs(torque) / lever, abs(omega * radius)))
        phi_new, omega = step(phi, omega, torque)
        position = position + (phi_new - phi) * radius
        phi = phi_new
        energy = energy + power * dt
        t = i * dt
        if i % record_every == 0:
            rows.append([t, position, omega * radius, omega, power, energy,
                         int(sat)])
    return rows


SLOPED = replace(CFG, rolling_resistance_crr=0.03,
                 slope_theta=math.radians(1.5))
DOWNHILL = replace(CFG, rolling_resistance_crr=0.05, slope_theta=-0.2)
WEAK_ROTORS = replace(CFG, max_rotor_thrust=0.1)


def _step_to_16(t):
    # the integrator clamps at +limit after the step, and the torque
    # saturates
    return np.array([0.0, 16.0 if t >= 2.0 else 0.5, 0.0])


def _nan_after_3s(t):
    return (0.0, math.nan if t >= 3.0 else 0.8, 0.0)


_TICK_CASES = pytest.mark.parametrize("config,omega_des", [
    (CFG, 0.6),
    (SLOPED, lambda t: np.array([0.0, 0.5 + 0.2 * math.sin(0.7 * t), 0.0])),
    (SLOPED, lambda t: (0.0, 1.0 + 0.5 * math.sin(2.0 * t), 0.0)),
    (SLOPED, _step_to_16),
    (WEAK_ROTORS, 1.0),
    (CFG, _nan_after_3s),
], ids=["constant", "xyz-array", "xyz-tuple", "saturating-step",
        "reduced-thrust", "nan-setpoint"])


@pytest.mark.parametrize("record_every", [1, 7])
@_TICK_CASES
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
    if omega_des is _nan_after_3s:
        # a NaN tick has a NaN torque, which is not beyond the limit
        nan_rows = got[np.isnan(got[:, 4])]
        assert len(nan_rows) and not nan_rows[:, 6].any()


@pytest.mark.parametrize("record_every", [1, 3, 16])
@_TICK_CASES
def test_power_blocks_leave_the_records_unchanged(config, omega_des,
                                                  record_every, monkeypatch):
    # the power, energy and position are summed per block of ticks: 7-tick
    # blocks, whose edges recorded ticks straddle, give the default block's
    # records bit for bit (the bytes tell -0.0 and NaN apart), and the read
    # side's types, Python floats and bools, stay
    want = dynamics.simulate_closed_loop(config, omega_des, duration=6.0,
                                         dt=0.01, record_every=record_every)
    assert want.records.shape == (1 + 600 // record_every, 8)
    monkeypatch.setattr(dynamics, "TICK_BLOCK", 7)
    got = dynamics.simulate_closed_loop(config, omega_des, duration=6.0,
                                        dt=0.01, record_every=record_every)
    assert got.records.dtype == want.records.dtype == np.float64
    assert got.records.shape == want.records.shape
    assert got.records.tobytes() == want.records.tobytes()
    assert {type(x) for state in got.states for x in state} == {float}
    assert set(map(type, got.power)) == {float}
    assert set(map(type, got.saturated)) == {bool}


def test_closed_loop_memory_does_not_grow_with_unrecorded_ticks(monkeypatch):
    # the per-tick buffers empty after each block, so a run that records
    # one state needs no more memory for 20 000 ticks than for 5 000. A
    # buffer kept for the whole run would hold 16 B per tick, 240 kB for
    # the 15 000 more, and its power arrays more again
    monkeypatch.setattr(dynamics, "TICK_BLOCK", 1000)

    def peak(ticks):
        tracemalloc.start()
        try:
            dynamics.simulate_closed_loop(CFG, 0.6, duration=ticks * 0.01,
                                          dt=0.01, record_every=ticks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5000)  # imports and caches the first run fills are not the run's
    assert peak(20000) - peak(5000) < 64 * 1024


def test_closed_loop_records_take_one_float64_array():
    # a recorded tick holds its eight float64s, 64 B, and no Python object:
    # a fully recorded 12 000-tick run, read as the CLI and the benchmark
    # read it, peaks at about 1.8 MB (768 kB of records, one block's
    # buffers and its power arrays); eight Python values per tick in a
    # flat list peaked at 4.25 MB
    def run():
        traj = dynamics.simulate_closed_loop(CFG, 0.6, duration=60.0,
                                             dt=0.005)
        return traj.to_csv_rows(), traj.states[-1]

    run()  # imports and caches the first run fills are not the run's
    tracemalloc.start()
    try:
        rows, final = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (12001, 7) and final.time == 60.0
    assert peak < 2.5e6


def test_trajectories_are_equal_when_their_records_are_bitwise():
    # == compares the records' shape and bytes: a NaN record equals itself
    # and -0.0 differs from 0.0
    def run(omega_des, **kw):
        return dynamics.simulate_closed_loop(CFG, omega_des, duration=4.0,
                                             dt=0.01, **kw)

    want = run(_nan_after_3s)
    assert np.isnan(want.records).any()
    assert run(_nan_after_3s) == want and not run(_nan_after_3s) != want
    assert run(_nan_after_3s, record_every=2) != want  # another shape
    assert run(0.8) != want
    flipped = want.records.copy()
    flipped[0, 1] = -0.0
    assert dynamics.Trajectory(flipped) != want


@pytest.mark.parametrize("omega_des", [
    0.8, lambda t: (0.0, 0.5 + 0.2 * math.sin(0.7 * t), 0.0),
], ids=["constant", "sine"])
def test_closed_loop_converges_at_first_order_in_dt(omega_des):
    # the PI holds its torque and the setpoint over a tick (a zero-order
    # hold) and energy is charged at the start-of-tick power, so the final
    # roll rate, roll angle and energy converge at order 1 in dt, whatever
    # the RK4 roll step's own order
    finals = []
    for dt in (0.008, 0.004, 0.002, 0.001):
        traj = dynamics.simulate_closed_loop(SLOPED, omega_des,
                                             duration=2.0, dt=dt)
        final = traj.states[-1]
        assert not any(traj.saturated)
        finals.append(np.array([final.roll_rate_omega, final.roll_angle,
                                final.energy_consumed]))
    errors = [np.abs(a - b) for a, b in zip(finals, finals[1:])]
    for coarse, fine in zip(errors, errors[1:]):
        np.testing.assert_allclose(np.log2(coarse / fine), 1.0, atol=0.1)


_OMEGA_GATE = dynamics.OMEGA_STATIC
#: bound of the roll step against its composition, in ulps of each output's
#: scale (2 at most over 4e5 random draws from the strategies below)
ROLL_STEP_ULPS = 8
#: a draw whose stage angle rounds to the next ulp of 654 rad, where the
#: drag's slope in phi sets omega's error; in hex, as hypothesis feeds a test
#: module's float literals to its draws
_ULP_OVER = float.fromhex("0x1.470d486d32c7ap+9")  # 654.1037727830837


@given(phi=st.floats(-1e6, 1e6),
       omega=st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
           [0.0, -0.0, _OMEGA_GATE, -_OMEGA_GATE,
            math.nextafter(_OMEGA_GATE, 1.0),
            -math.nextafter(_OMEGA_GATE, 1.0)])),
       torque=st.floats(-1e3, 1e3),
       config=st.sampled_from([CFG, replace(CFG, **EARTH),
                               SLOPED, DOWNHILL]),
       dt=st.sampled_from([1e-6, 0.005, 0.01]))
@example(phi=_ULP_OVER, omega=_ULP_OVER, torque=_ULP_OVER,
         config=replace(CFG, **EARTH), dt=0.01)
def test_roll_step_is_rk4_on_the_drag_and_resistance_composition(
        phi, omega, torque, config, dt):
    # the roll step folds its constants into per-run coefficients: it must
    # equal an RK4 step on drag_force over projected_area, and the slope and
    # rolling-resistance torques, to within ROLL_STEP_ULPS ulps of each
    # output's scale. Where the torque and the resistances nearly cancel the
    # rounding of those terms dominates, so omega's scale takes
    # dt (|torque| + the largest stage's resisting torques) / J. The drag
    # torque also varies with phi, by at most its value over the widest area
    # (h + 2l) w per radian, so a stage angle rounded an ulp of |phi| apart
    # moves omega by about an ulp of dt times that torque times |phi| / J,
    # which omega's scale takes too. Phi's takes dt times omega's, as the
    # stage rates feed phi.
    m, r = config.total_mass, config.shell_radius_l
    inertia = dynamics.rolling_inertia(config) + m * r ** 2
    resisting, rates = [], []

    def accel(phi, omega):
        drag = aeropower.drag_force(
            config, aeropower.projected_area(config, phi, "rolling"),
            omega * r)
        slope = m * config.gravity * math.sin(config.slope_theta) * r
        resist, size = slope + drag * r, abs(slope) + abs(drag * r)
        if abs(omega) > dynamics.OMEGA_STATIC:
            normal = m * config.gravity * math.cos(config.slope_theta)
            crr = config.rolling_resistance_crr * normal * r
            resist, size = resist + math.copysign(crr, omega), size + crr
        resisting.append(size)
        rates.append(abs(omega))
        return (torque - resist) / inertia

    h = 0.5 * dt
    a1 = accel(phi, omega)
    w2 = omega + h * a1
    a2 = accel(phi + h * omega, w2)
    w3 = omega + h * a2
    a3 = accel(phi + h * w2, w3)
    w4 = omega + dt * a3
    a4 = accel(phi + dt * w3, w4)
    want_phi = phi + dt / 6.0 * (omega + 2 * w2 + 2 * w3 + w4)
    want_omega = omega + dt / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
    got_phi, got_omega = dynamics._roll_step(config, dt)(phi, omega, torque)
    assert type(got_phi) is float and type(got_omega) is float
    widest = (config.body_height_h_rolling + 2.0 * r) * config.shell_width_w
    drag_slope = aeropower.drag_force(config, widest, max(rates) * r) * r
    omega_scale = (max(abs(omega), abs(want_omega))
                   + dt * (abs(torque) + max(resisting)
                           + drag_slope * abs(phi)) / inertia)
    phi_scale = max(abs(phi), abs(want_phi)) + dt * omega_scale
    assert (abs(got_omega - want_omega)
            <= ROLL_STEP_ULPS * math.ulp(omega_scale))
    assert abs(got_phi - want_phi) <= ROLL_STEP_ULPS * math.ulp(phi_scale)


@pytest.mark.parametrize("record_every", [1, 7])
def test_closed_loop_records_are_simstates(record_every):
    # records are built with tuple.__new__; they must stay SimStates
    traj = dynamics.simulate_closed_loop(SLOPED, 0.8, duration=1.0, dt=0.01,
                                         record_every=record_every)
    assert len(traj.states) == 1 + 100 // record_every
    for state in traj.states:
        assert type(state) is dynamics.SimState
        assert tuple(state._asdict()) == (
            "position_s", "speed_v", "roll_angle", "roll_rate_omega",
            "energy_consumed", "time")


def test_trajectory_states_is_a_read_only_view_of_simstates():
    # the records live in one array: states builds a SimState when read
    traj = dynamics.simulate_closed_loop(SLOPED, _step_to_16, duration=3.0,
                                         dt=0.01, record_every=7)
    states = list(traj.states)
    n = len(states)
    assert len(traj.states) == n == 1 + 300 // 7
    assert traj.states[0] == states[0] == dynamics.SimState()
    assert traj.states[-1] == states[-1] != states[-2]
    assert traj.states[-n] == states[0]
    for past_the_end in (n, -n - 1):
        with pytest.raises(IndexError):
            traj.states[past_the_end]
    for cut in (slice(None), slice(1, None, 3), slice(-5, None),
                slice(None, None, -2), slice(n, None)):
        assert type(traj.states[cut]) is list
        assert traj.states[cut] == states[cut]
    assert all(type(state) is dynamics.SimState for state in (
        traj.states[0], traj.states[-1], *traj.states, *traj.states[2:4]))
    assert traj.states == states and states == traj.states
    assert traj.states != states[:-1]
    with pytest.raises(TypeError):
        traj.states[0] = dynamics.SimState()


@pytest.mark.parametrize("omega_des", [_step_to_16, _nan_after_3s],
                         ids=["saturating-step", "nan-setpoint"])
def test_csv_rows_equal_the_rows_of_the_records(omega_des):
    # to_csv_rows is a float64 view of the records; bit for bit (the bytes
    # tell -0.0 and NaN apart) the rows built from states, power and
    # saturated, the flag as 0.0 or 1.0
    traj = dynamics.simulate_closed_loop(SLOPED, omega_des, duration=6.0,
                                         dt=0.01, record_every=3)
    want = np.array([[st.time, st.position_s, st.speed_v, st.roll_rate_omega,
                      p, st.energy_consumed, int(sat)]
                     for st, p, sat in zip(traj.states, traj.power,
                                           traj.saturated)], float)
    assert len(want) == len(traj.power) == len(traj.saturated) == 201
    rows = traj.to_csv_rows()
    assert rows.dtype == np.float64 and rows.shape == want.shape
    assert rows.tobytes() == want.tobytes()
    assert np.shares_memory(rows, traj.records)
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0


def test_closed_loop_records_leave_no_tracked_object_per_record():
    # the collector never untracks a tuple subclass, so a SimState kept per
    # record would add one object to every older-generation collection's
    # walk; one float64 array of records adds none
    gc.collect()
    before = len(gc.get_objects())
    traj = dynamics.simulate_closed_loop(CFG, 0.6, duration=30.0, dt=0.005)
    gc.collect()
    assert len(traj.states) == 6001
    assert len(gc.get_objects()) - before < 100


def test_energy_accumulates_power():
    # the loop charges each tick's recorded power over dt: energy is the
    # running sum of power * dt, in tick order, bit for bit, inside the
    # thrust limit and saturated
    dt = 0.01
    for config, omega_des in ((CFG, 0.6), (SLOPED, 1.2), (WEAK_ROTORS, 1.0),
                              (SLOPED, _step_to_16)):
        traj = dynamics.simulate_closed_loop(config, omega_des,
                                             duration=3.0, dt=dt)
        energy = 0.0
        for state, power in zip(traj.states[1:], traj.power[1:]):
            energy += power * dt
            assert state.energy_consumed == energy
        assert energy > 0


@pytest.mark.parametrize("omega_des", [
    0.7,
    lambda t: (0.0, 0.7 + 0.2 * math.sin(t), 0.0),
    lambda t: np.array([0.0, 0.7 + 0.2 * math.sin(t), 0.0]),
], ids=["constant", "tuple", "ndarray"])
def test_closed_loop_records_python_floats(omega_des):
    # the tick stays on Python floats whatever the setpoint's type
    traj = dynamics.simulate_closed_loop(CFG, omega_des, duration=0.5,
                                         dt=0.01)
    values = [*traj.power, *(x for st in traj.states for x in st)]
    assert {type(x) for x in values} == {float}


def test_closed_loop_tick_makes_one_call_besides_the_setpoint():
    # a tick runs in one frame: its one Python call is the roll step, plus
    # the setpoint's where it is a callable (a constant makes none), plus a
    # constant per run for the set-up
    def calls(omega_des, ticks):
        events = []

        def profile(frame, event, arg):
            if event == "call":
                events.append(frame.f_code.co_name)

        gc.collect()  # no finalizer of other objects may run in the loop
        gc.disable()
        sys.setprofile(profile)
        try:
            dynamics.simulate_closed_loop(SLOPED, omega_des,
                                          duration=ticks * 0.01, dt=0.01)
        finally:
            sys.setprofile(None)
            gc.enable()
        assert events.count("step") == ticks
        return len(events)

    def setpoint(t):
        return (0.0, 0.8, 0.0)

    n = 1000
    for omega_des, per_tick in ((0.8, 1), (setpoint, 2)):
        assert calls(omega_des, n) <= per_tick * n + 50
        assert calls(omega_des, 2 * n) - calls(omega_des, n) == per_tick * n


@pytest.mark.parametrize("bad", [
    (0.0, 1.0, 0.0), np.array([0.0, 1.0, 0.0]), np.array(1.0),
    "1.0", None, True, False, np.bool_(True), 1 + 0j,
], ids=["tuple", "ndarray", "0-d-array", "str", "None", "True", "False",
        "numpy-bool", "complex"])
def test_closed_loop_rejects_a_constant_setpoint_that_is_not_a_number(bad):
    # params rejects booleans for every field; so does the setpoint
    with pytest.raises(ValueError, match="omega_des"):
        dynamics.simulate_closed_loop(CFG, bad, duration=0.1, dt=0.01)


@pytest.mark.parametrize("number", [np.float64(0.6), np.float32(0.5), 1,
                                    np.int64(1)])
def test_closed_loop_takes_any_real_constant_setpoint(number):
    want = dynamics.simulate_closed_loop(CFG, float(number), duration=0.5,
                                         dt=0.01)
    got = dynamics.simulate_closed_loop(CFG, number, duration=0.5, dt=0.01)
    assert got == want


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
    (1.0, 2.0),     # a float, not an integer
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


@pytest.mark.parametrize("off_axis", [
    (0.1, 0.5, 0.0), (0.0, 0.5, -0.2), (math.nan, 0.5, 0.0),
    (0.0, 0.5, math.nan), (1e-300, 0.5, 0.0)],
    ids=["x", "z", "x-nan", "z-nan", "x-tiny"])
@pytest.mark.parametrize("as_array", [False, True], ids=["tuple", "ndarray"])
def test_closed_loop_rejects_an_off_axis_rate(off_axis, as_array):
    # the model rolls about y only: an x or z rate, NaN included, has no
    # degree of freedom to act on, so it is an error, not a wound integrator
    setpoint = np.array(off_axis) if as_array else off_axis
    with pytest.raises(ValueError, match="omega_des"):
        dynamics.simulate_closed_loop(CFG, lambda t: setpoint, duration=0.1,
                                      dt=0.01)


def test_closed_loop_time_is_tick_times_dt():
    # t = i dt, not a running sum of dt, which drifts to 9.999999999999831
    traj = dynamics.simulate_closed_loop(CFG, 0.5, duration=10.0, dt=0.01)
    assert traj.states[-1].time == 10.0
    assert [state.time for state in traj.states] == [
        i * 0.01 for i in range(1001)]


def test_step_setpoint_fires_on_its_tick():
    # a step at t >= 10 s from rest: tick 1001 starts at t = 1000 * 0.01 =
    # 10.0, so it is the first tick with a torque
    roll_step, torques = dynamics._roll_step, []

    def recording_roll_step(config, dt):
        step = roll_step(config, dt)

        def recorded(phi, omega, torque_y):
            torques.append(torque_y)
            return step(phi, omega, torque_y)
        return recorded

    with mock.patch.object(dynamics, "_roll_step", recording_roll_step):
        dynamics.simulate_closed_loop(
            CFG, lambda t: (0.0, 1.0 if t >= 10.0 else 0.0, 0.0),
            duration=10.05, dt=0.01)
    assert not any(torques[:1000])
    assert torques[1000] > 0.0
