import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilitylab import aeropower, steadystate
from mobilitylab.params import (AnalysisError, ScenarioConfig, TerrainParams,
                               VehicleParams)

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
        assert type(got) is float and type(want) is float
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


def test_flying_trim_residuals():
    env, ter = CFG.environment, CFG.terrain
    m = CFG.vehicle.cobot_mass
    for v in (0.0, 0.5, 1.0, 2.0):
        sol = steadystate.flying_equilibrium(CFG, v)
        thrust = sol.total_thrust / CFG.num_agents
        drag = sol.drag / CFG.num_agents
        along = (thrust * math.sin(sol.tilt_alpha) - drag
                 - m * env.gravity * math.sin(ter.slope_theta))
        normal = (thrust * math.cos(sol.tilt_alpha)
                  - m * env.gravity * math.cos(ter.slope_theta))
        assert abs(along) < 1e-9
        assert abs(normal) < 1e-9


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
