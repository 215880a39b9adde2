import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilitylab import aeropower, rangeopt, steadystate
from mobilitylab.params import (AnalysisError, ScenarioConfig, TerrainParams,
                               VehicleParams, earth_defaults)

CFG = ScenarioConfig()


def test_average_rolling_area_value():
    # (2/pi)(h + 2 l) w
    assert steadystate.average_rolling_area(CFG) == pytest.approx(
        (2 / math.pi) * (0.16 + 0.4) * 0.4, rel=1e-12)


def test_traction_force_at_rest():
    # v = 0: only rolling resistance, F_t = C_rr m g
    sol = steadystate.rolling_equilibrium(CFG, 0.0)
    ft = 0.01 * 1.6 * 1.352
    assert ft == pytest.approx(0.02163, rel=1e-3)
    assert sol.required_torque == pytest.approx(ft * 0.2, rel=1e-12)
    assert sol.drag == 0.0
    assert sol.rolling_resistance_force == pytest.approx(ft, rel=1e-12)


def test_rolling_torque_residual_exact():
    for v in (0.0, 0.1, 0.5, 1.5):
        sol = steadystate.rolling_equilibrium(CFG, v)
        resist = steadystate.rolling_resistive_force(CFG, v)
        assert abs(sol.required_torque - resist * 0.2) < 1e-12


def test_rolling_rotor_thrusts_consistent():
    sol = steadystate.rolling_equilibrium(CFG, 0.2)
    thrusts = sol.per_rotor_thrust
    assert thrusts.shape == (8,)
    assert np.all(thrusts >= 0)
    # 4 pairs, one spinning rotor each, equal magnitude tau/(4c)
    c = 0.14 / math.sqrt(2)
    expect = sol.required_torque / (4 * c)
    assert np.count_nonzero(thrusts) == 4
    assert np.allclose(thrusts[thrusts > 0], expect, rtol=1e-12)
    # pair k maps to rotors (k, k+4): positive torque spins rotors 2..5
    assert sol.required_torque > 0
    assert np.flatnonzero(thrusts).tolist() == [2, 3, 4, 5]
    # downhill with no rolling resistance the torque brakes: the other four
    downhill = replace(CFG, terrain=TerrainParams(0.0, -0.3))
    sol = steadystate.rolling_equilibrium(downhill, 0.05)
    assert sol.required_torque < 0
    assert np.flatnonzero(sol.per_rotor_thrust).tolist() == [0, 1, 6, 7]


def test_rolling_rejects_negative_speed():
    with pytest.raises(ValueError):
        steadystate.rolling_equilibrium(CFG, -0.1)


def test_rolling_infeasible_raises():
    weak = replace(CFG, vehicle=replace(CFG.vehicle, max_rotor_thrust=1e-6))
    with pytest.raises(steadystate.InfeasibleError):
        steadystate.rolling_equilibrium(weak, 0.5)


@settings(max_examples=30)
@given(v=st.floats(0.0, 2.0), crr=st.floats(0.0, 0.3),
       theta=st.floats(0.0, 0.03))
def test_rolling_power_monotone_in_resistance(v, crr, theta):
    base = replace(CFG, terrain=TerrainParams(crr, theta))
    worse = replace(CFG, terrain=TerrainParams(crr + 0.05, theta))
    p0 = steadystate.rolling_equilibrium(base, v).total_electrical_power
    p1 = steadystate.rolling_equilibrium(worse, v).total_electrical_power
    assert p1 >= p0


def test_rolling_power_keeps_nan_torque():
    # a NaN torque must not turn into a free 0 W roll
    assert math.isnan(steadystate.rolling_power(CFG, math.nan, 0.1))


#: torques at zero, inside and beyond the thrust limit (about 3.2 N m on
#: four pairs), non-finite; speeds around the rolling range, NaN and ±inf
_TORQUES = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf]),
                     st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))
_SPEEDS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.floats(-100.0, 100.0))


def _same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        np.float64(a).tobytes() == np.float64(b).tobytes())


@given(points=st.lists(st.tuples(_TORQUES, _SPEEDS), min_size=1, max_size=8),
       n_pairs=st.integers(1, 24))
def test_rolling_power_fn_matches_rolling_power_bitwise(points, n_pairs):
    power = steadystate.rolling_power_fn(CFG, n_pairs)
    torque, v = (np.array(x) for x in zip(*points))
    array = steadystate.rolling_power(CFG, torque, v, n_pairs)
    for (t, s), p in zip(points, array):
        got = power(t, s)
        want = steadystate.rolling_power(CFG, t, s, n_pairs)
        assert type(got) is float
        assert _same_bits(got, want)
        assert _same_bits(got, float(p))


def test_rolling_power_infinite_speed_is_nan_without_warning():
    # v sin(0) is NaN at |v| = inf; warnings are errors here
    for v in (math.inf, -math.inf):
        assert math.isnan(steadystate.rolling_power(CFG, 0.5, v))
        assert np.isnan(steadystate.rolling_power(CFG, np.array([0.5]),
                                                  np.array([v]))).all()


def test_rolling_power_masks_beyond_limit_before_power_chain():
    # a thrust far beyond the limit is NaN without overflowing (warnings
    # are errors here) on the array path and on the scalar one
    torque = np.array([1e300, 0.1])
    power = steadystate.rolling_power(CFG, torque, np.array([0.1, 0.1]))
    assert math.isnan(power[0]) and power[1] > 0.0
    assert math.isnan(steadystate.rolling_power(CFG, 1e300, 0.1))


def test_rolling_power_increases_with_speed():
    powers = [steadystate.rolling_equilibrium(CFG, v).total_electrical_power
              for v in np.linspace(0.05, 1.5, 10)]
    assert np.all(np.diff(powers) > 0)


def test_downhill_needs_braking_torque():
    # steep descent: gravity beats resistance, rotors brake (torque < 0)
    # and braking thrust still costs electrical power in this model
    downhill = replace(CFG, terrain=TerrainParams(0.01, -0.1))
    sol = steadystate.rolling_equilibrium(downhill, 0.1)
    assert sol.required_torque < 0
    assert sol.total_electrical_power > 0


def _trim_residuals(config, sol):
    env, ter = config.environment, config.terrain
    m = config.vehicle.cobot_mass
    thrust = sol.total_thrust / config.num_agents
    drag = sol.drag / config.num_agents
    along = (thrust * math.sin(sol.tilt_alpha) - drag
             - m * env.gravity * math.sin(ter.slope_theta))
    normal = (thrust * math.cos(sol.tilt_alpha)
              - m * env.gravity * math.cos(ter.slope_theta))
    return along, normal


def test_flying_trim_residuals():
    for v in (0.0, 0.5, 1.0, 2.0):
        along, normal = _trim_residuals(CFG, steadystate.flying_equilibrium(
            CFG, v))
        assert abs(along) < 1e-9
        assert abs(normal) < 1e-9


def test_steep_downhill_trim_takes_lowest_power_root():
    # at 1.45 m/s on a -0.5 rad slope the tilt balance has three roots,
    # near -0.0481, 0.1497 and 0.9103 rad; the first needs the least power
    steep = replace(CFG, terrain=TerrainParams(0.01, -0.5))
    sol = steadystate.flying_equilibrium(steep, 1.45)
    assert sol.tilt_alpha == pytest.approx(-0.0481, abs=5e-5)
    assert max(map(abs, _trim_residuals(steep, sol))) < 1e-9
    assert sol.total_electrical_power / CFG.num_agents == pytest.approx(
        1.34, abs=5e-3)


def _fixed_point_flying_power(config, v, steps=400):
    """Flying power from the plain tilt fixed point run for many steps."""
    env, veh, ter = config.environment, config.vehicle, config.terrain
    along = veh.cobot_mass * env.gravity * math.sin(ter.slope_theta)
    normal = veh.cobot_mass * env.gravity * math.cos(ter.slope_theta)

    def drag_at(alpha):
        return aeropower.drag_force(
            env, aeropower.projected_area(veh, alpha, "flying"), v,
            veh.drag_coefficient_cd)

    alpha = np.zeros_like(v)
    for _ in range(steps):
        alpha = np.arctan2(drag_at(alpha) + along, normal)
    thrust = np.hypot(drag_at(alpha) + along, normal)
    return config.num_agents * aeropower.rotors_power(
        env, veh, thrust / 4.0, v, alpha)


@pytest.mark.parametrize("env", ["titan", "earth"])
@pytest.mark.parametrize("theta_deg", [-0.5, 0.0, 1.0, 3.0, 6.5])
def test_flying_power_matches_long_fixed_point(env, theta_deg):
    config = replace(CFG, terrain=TerrainParams(0.01, math.radians(theta_deg)))
    if env == "earth":
        config = replace(config, environment=earth_defaults())
    v = rangeopt.default_velocity_grid("flying")
    got = steadystate.flying_power(config, v)
    want = _fixed_point_flying_power(config, v)
    assert np.isfinite(want).all()
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_flying_at_zero_speed_is_hover():
    sol = steadystate.flying_equilibrium(CFG, 0.0)
    hover = aeropower.cobot_hover_power(CFG.environment, CFG.vehicle)
    assert sol.tilt_alpha == 0.0
    assert sol.total_electrical_power == pytest.approx(2 * hover, rel=1e-12)


def test_flying_tilt_grows_with_speed():
    tilts = [steadystate.flying_equilibrium(CFG, v).tilt_alpha
             for v in (0.2, 0.8, 1.6, 3.0)]
    assert np.all(np.diff(tilts) > 0)
    assert all(0 < t < math.pi / 2 for t in tilts)


def _on_slopes(config, theta):
    return replace(config, terrain=TerrainParams(0.01, theta))


def test_flying_power_broadcasts_over_slope_bitwise():
    # each row of an array-slope call is that slope's call, NaN included
    weak = replace(CFG, vehicle=replace(CFG.vehicle, max_rotor_thrust=0.4))
    theta = np.radians(np.linspace(-0.5, 20.0, 9))
    v = np.linspace(0.0, 3.0, 40)
    rows = steadystate.flying_power(_on_slopes(weak, theta[:, None]), v)
    per_slope = [steadystate.flying_power(_on_slopes(weak, float(th)), v)
                 for th in theta]
    assert rows.shape == (9, 40)
    assert np.isnan(rows).any() and np.isfinite(rows).any()
    assert np.array_equal(rows, per_slope, equal_nan=True)


def test_flying_trim_failure_names_broadcast_speeds(monkeypatch):
    monkeypatch.setattr(steadystate, "TRIM_MAX_ITER", 1)
    theta = np.radians([0.0, 1.0])[:, None]
    with pytest.raises(aeropower.SolverError,
                       match=r"at 4 speed\(s\), v = 0\.5 to 1 m/s$"):
        steadystate.flying_power(_on_slopes(CFG, theta), [0.5, 1.0])


def test_unconverged_inflow_raises_solver_error(monkeypatch):
    monkeypatch.setattr(aeropower, "INDUCED_MAX_ITER", 1)
    with pytest.raises(aeropower.SolverError,
                       match=r"^induced velocity Newton solve did not "
                             r"converge to 1e-10 in 1 iterations$"):
        steadystate.flying_power(CFG, rangeopt.default_velocity_grid(
            "flying"))


@pytest.mark.parametrize("env", ["titan", "earth"])
@pytest.mark.parametrize("agents", [1, 2, 8])
def test_flying_inflow_converges_in_few_iterations(monkeypatch, env,
                                                   agents):
    # the default flying grid takes at most 5 inflow Newton iterations over
    # these slopes; a cap of 6 makes a slide to bisection (about 35) fail
    monkeypatch.setattr(aeropower, "INDUCED_MAX_ITER", 6)
    config = replace(CFG, num_agents=agents)
    if env == "earth":
        config = replace(config, environment=earth_defaults())
    theta = np.radians(np.linspace(-0.5, 6.5, 15))[:, None]
    power = steadystate.flying_power(_on_slopes(config, theta),
                                     rangeopt.default_velocity_grid("flying"))
    assert np.isfinite(power).any()


def test_flying_infeasible_raises():
    weak = replace(CFG, vehicle=replace(CFG.vehicle, max_rotor_thrust=0.01))
    with pytest.raises(steadystate.InfeasibleError):
        steadystate.flying_equilibrium(weak, 1.0)


def test_infeasible_error_is_an_analysis_error():
    # the CLI reports every AnalysisError as exit 1 with an error: line
    assert issubclass(steadystate.InfeasibleError, AnalysisError)


def test_resistive_force_area_changes_drag_only():
    v, avg = 0.7, steadystate.average_rolling_area(CFG)
    base = steadystate.rolling_resistive_force(CFG, v)
    assert steadystate.rolling_resistive_force(CFG, v, avg) == base
    extra = steadystate.rolling_resistive_force(CFG, v, 3.0 * avg) - base
    assert extra == pytest.approx(2.0 * aeropower.drag_force(
        CFG.environment, avg, v, CFG.vehicle.drag_coefficient_cd), rel=1e-12)


def test_flying_totals_scale_with_agents():
    solo = replace(CFG, num_agents=1)
    one = steadystate.flying_equilibrium(solo, 1.0)
    two = steadystate.flying_equilibrium(CFG, 1.0)
    assert two.total_electrical_power == pytest.approx(
        2 * one.total_electrical_power, rel=1e-12)
    assert two.total_thrust == pytest.approx(2 * one.total_thrust, rel=1e-12)


def test_rolling_cheaper_than_flying_headline():
    # same speed, ideal surface: the docked roller wins by a wide margin
    v = 0.5
    roll = steadystate.rolling_equilibrium(CFG, v).total_electrical_power
    fly = steadystate.flying_equilibrium(CFG, v).total_electrical_power
    assert roll < fly / 5


def test_rolling_power_drag_only_at_zero_crr():
    ideal = replace(CFG, terrain=TerrainParams(0.0, 0.0))
    sol = steadystate.rolling_equilibrium(ideal, 0.3)
    assert sol.required_torque == pytest.approx(sol.drag * 0.2, rel=1e-12)
