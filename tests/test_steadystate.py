import itertools
import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mobilitylab import aeropower, dynamics, rangeopt, steadystate
from mobilitylab.params import EARTH, ScenarioConfig

CFG = ScenarioConfig()


def _chain_efficiency(config):
    return config.eta_propeller * config.eta_motor * config.eta_controller


def _rolling_power(config, torque, v):
    """The power of a pure roll torque held at speed v: ``pair_power`` at
    its pair force |torque| / lever, as ``rolling_state`` charges it."""
    return steadystate.pair_power(
        config, abs(torque) / steadystate._pair_lever(config), v)


def test_average_rolling_area_value():
    # (2/pi)(h + 2 l) w
    assert steadystate.average_rolling_area(CFG) == pytest.approx(
        (2 / math.pi) * (0.16 + 0.4) * 0.4, rel=1e-12)


def test_traction_force_at_rest():
    # v = 0: only rolling resistance, F_t = C_rr m g
    ft = 0.01 * 1.6 * 1.352
    assert ft == pytest.approx(0.02163, rel=1e-3)
    assert steadystate.rolling_state(CFG, 0.0).torque == pytest.approx(
        ft * 0.2, rel=1e-12)


def test_rolling_torque_residual_exact():
    for v in (0.0, 0.1, 0.5, 1.5):
        torque = steadystate.rolling_state(CFG, v).torque
        resist = steadystate.rolling_resistive_force(CFG, v)
        assert abs(torque - resist * 0.2) < 1e-12


def test_rolling_rotor_thrusts_consistent():
    # the torque is the resistive force times the shell radius, and the
    # power 4 pairs, one edgewise rotor each at the pair force |tau| / (4 c):
    # climbing (tau > 0), and braking downhill with no rolling resistance
    # (tau < 0), where |tau| is charged
    c = 0.14 / math.sqrt(2)
    rho2a = 2.0 * CFG.air_density * CFG.rotor_disk_area
    eta = _chain_efficiency(CFG)
    for config, v, sign in ((CFG, 0.2, 1.0),
                            (replace(CFG, rolling_resistance_crr=0.0,
                                     slope_theta=-0.3), 0.05, -1.0)):
        state = steadystate.rolling_state(config, v)
        assert state.torque == (steadystate.rolling_resistive_force(config, v)
                                * config.shell_radius_l)
        assert np.sign(state.torque) == sign
        f = abs(state.torque) / (4 * c)
        assert state.power == pytest.approx(
            4 * aeropower.momentum_power(f, rho2a, v, v, 0.0, eta)[1],
            rel=1e-12)


@settings(deadline=None)
@given(v=st.floats(0.0, 2.0), theta=st.floats(-0.3, 0.3),
       crr=st.sampled_from((0.0, 0.01, 0.1)))
@example(v=0.0, theta=0.0, crr=0.0)      # tau = 0
@example(v=0.05, theta=-0.3, crr=0.0)    # braking: tau < 0
@example(v=0.5, theta=0.1, crr=0.01)     # climbing: tau > 0
def test_rolling_rotor_thrusts_are_the_charged_pair_force(v, theta, crr):
    # the record's power is pair_power at its torque's pair force, bit for
    # bit, as a scalar and as one element of a broadcast call
    config = replace(CFG, rolling_resistance_crr=crr, slope_theta=theta)
    torque = (steadystate.rolling_resistive_force(config, v)
              * config.shell_radius_l)
    state = steadystate.rolling_state(config, v)
    assert state.torque == torque
    assert state.power == _rolling_power(config, torque, v)
    batch = steadystate.rolling_state(config, np.array([0.0, v, 2.0]))
    assert np.array_equal(batch.power[1], state.power, equal_nan=True)


def test_rotor_power_is_the_one_caller_of_the_kernel(monkeypatch):
    # every rotor power of the analysis, the closed loop's per-block charge
    # included, reaches momentum_power through rotor_power alone
    kernel, callers = aeropower.momentum_power, []

    def recorded(*args):
        frame = sys._getframe(1)
        callers.append(f"{frame.f_globals['__name__']}."
                       f"{frame.f_code.co_name}")
        return kernel(*args)

    monkeypatch.setattr(aeropower, "momentum_power", recorded)
    monkeypatch.setattr(dynamics, "TICK_BLOCK", 3)
    ops = [lambda: steadystate.rolling_state(CFG, [0.0, 0.5]),
           lambda: steadystate.flying_state(CFG, 0.0),
           lambda: steadystate.flying_state(CFG, [0.0, 1.0]),
           lambda: rangeopt.best_range(CFG, "rolling"),
           lambda: rangeopt.best_range(CFG, "flying"),
           lambda: rangeopt.scaling_bounds(CFG, range(1, 4)),
           lambda: dynamics.simulate_closed_loop(CFG, 0.6, 0.06, 0.01)]
    for op in ops:
        start = len(callers)
        op()
        assert len(callers) > start
    assert set(callers) == {"mobilitylab.steadystate.rotor_power"}
    assert len(callers) - start == 2  # the closed loop: one per block


def test_rolling_rejects_negative_speed():
    for v in (-0.1, np.array([0.5, -0.0, -1e-300])):
        with pytest.raises(ValueError, match=r"v must be >= 0, got -"):
            steadystate.rolling_state(CFG, v)


@pytest.mark.parametrize("state", [steadystate.rolling_state,
                                   steadystate.flying_state])
def test_speed_list_equals_array_call(state):
    # both records take a list of speeds as they take an array
    got, want = state(CFG, [0.1, 0.2]), state(CFG, np.array([0.1, 0.2]))
    assert type(got) is type(want)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_flying_rejects_negative_speed():
    for v in (-0.1, [[0.5], [-2.0]]):
        with pytest.raises(ValueError, match=r"v must be >= 0, got -"):
            steadystate.flying_state(CFG, v)


def test_rolling_infeasible_is_nan_power():
    weak = replace(CFG, max_rotor_thrust=1e-6)
    state = steadystate.rolling_state(weak, 0.5)
    assert state.torque > 0 and math.isnan(state.power)


@settings(max_examples=30)
@given(v=st.floats(0.0, 2.0), crr=st.floats(0.0, 0.3),
       theta=st.floats(0.0, 0.03))
def test_rolling_power_monotone_in_resistance(v, crr, theta):
    base = replace(CFG, rolling_resistance_crr=crr, slope_theta=theta)
    worse = replace(CFG, rolling_resistance_crr=crr + 0.05, slope_theta=theta)
    p0 = steadystate.rolling_state(base, v).power
    p1 = steadystate.rolling_state(worse, v).power
    assert p1 >= p0


def test_rolling_power_keeps_nan_torque():
    # a NaN torque must not turn into a free 0 W roll
    assert math.isnan(_rolling_power(CFG, math.nan, 0.1))


#: torques at zero, inside and beyond the thrust limit (about 3.2 N m on
#: four pairs), non-finite; speeds around the rolling range, NaN and ±inf
_TORQUES = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf]),
                     st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))
_SPEEDS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.floats(-100.0, 100.0))


def _same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        np.float64(a).tobytes() == np.float64(b).tobytes())


@given(points=st.lists(st.tuples(_TORQUES, _SPEEDS), min_size=1, max_size=8))
def test_rolling_power_scalar_call_matches_array_call_bitwise(points):
    # the closed loop is pinned to the scalar call, the sweeps use arrays
    torque, v = (np.array(x) for x in zip(*points))
    array = _rolling_power(CFG, torque, v)
    for (t, s), p in zip(points, array):
        assert _same_bits(float(_rolling_power(CFG, t, s)), float(p))


def test_rolling_power_infinite_speed_is_nan_without_warning():
    # v sin(0) is NaN at |v| = inf; warnings are errors here
    for v in (math.inf, -math.inf):
        assert math.isnan(_rolling_power(CFG, 0.5, v))
        assert np.isnan(_rolling_power(CFG, np.array([0.5]),
                                       np.array([v]))).all()


def test_rolling_power_masks_beyond_limit_before_power_chain():
    # a thrust far beyond the limit is NaN with no overflow warning
    # (warnings are errors here), on the array path and on the scalar one
    torque = np.array([1e300, 0.1])
    power = _rolling_power(CFG, torque, np.array([0.1, 0.1]))
    assert math.isnan(power[0]) and power[1] > 0.0
    assert math.isnan(_rolling_power(CFG, 1e300, 0.1))


def test_rolling_power_thrust_limit_is_strict():
    # one limit, no slack: finite at a pair force of exactly
    # max_rotor_thrust, NaN one ulp above it, the same strict > that
    # flying_state applies
    f_max = CFG.max_rotor_thrust
    lever = steadystate._pair_lever(CFG, 4)
    for f, finite in ((f_max, True), (math.nextafter(f_max, math.inf),
                                      False)):
        torque = f * lever
        assert torque / lever == f  # the torque's pair force is f exactly
        assert math.isfinite(_rolling_power(CFG, torque, 0.1)) is finite


def test_rolling_power_increases_with_speed():
    powers = steadystate.rolling_state(CFG, np.linspace(0.05, 1.5, 10)).power
    assert np.all(np.diff(powers) > 0)


def test_downhill_needs_braking_torque():
    # steep descent: gravity beats resistance, rotors brake (torque < 0)
    # and braking thrust still costs electrical power in this model
    downhill = replace(CFG, rolling_resistance_crr=0.01, slope_theta=-0.1)
    state = steadystate.rolling_state(downhill, 0.1)
    assert state.torque < 0
    assert state.power > 0


def _trim_residuals(config, state):
    """Per-agent force balance along and normal to the slope."""
    m = config.cobot_mass
    along = (state.thrust * np.sin(state.tilt) - state.drag
             - m * config.gravity * math.sin(config.slope_theta))
    normal = (state.thrust * np.cos(state.tilt)
              - m * config.gravity * math.cos(config.slope_theta))
    return along, normal


def test_flying_trim_residuals():
    state = steadystate.flying_state(CFG, [0.0, 0.5, 1.0, 2.0])
    for residual in _trim_residuals(CFG, state):
        assert np.max(np.abs(residual)) < 1e-9


def test_steep_downhill_trim_takes_lowest_power_root():
    # at 1.45 m/s on a -0.5 rad slope the tilt balance has three roots,
    # near -0.0481, 0.1497 and 0.9103 rad; the first needs the least power
    steep = replace(CFG, rolling_resistance_crr=0.01, slope_theta=-0.5)
    state = steadystate.flying_state(steep, 1.45)
    assert state.tilt == pytest.approx(-0.0481, abs=5e-5)
    assert max(map(abs, _trim_residuals(steep, state))) < 1e-9
    assert state.power / CFG.num_agents == pytest.approx(1.34, abs=5e-3)


def _bisected_tilt(config, v):
    """The trim tilt by bisection alone, on drag_force(projected_area), in
    the half-bracket that the fixed-point step from a = 0 picks."""
    weight = config.cobot_mass * config.gravity
    along, normal = (weight * math.sin(config.slope_theta),
                     weight * math.cos(config.slope_theta))

    def residual(alpha):
        drag = aeropower.drag_force(
            config, aeropower.projected_area(config, alpha, "flying"), v)
        return alpha - math.atan2(drag + along, normal)

    lo = 0.0 if residual(0.0) < 0.0 else -math.pi / 2
    hi = lo + math.pi / 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if residual(mid) < 0.0 else (lo, mid)
    return mid


@settings(deadline=None)
@given(theta=st.floats(-0.5, 0.6), v=st.floats(0.0, 8.0),
       env=st.sampled_from(["titan", "earth"]))
# three roots, -0.0481 below 0 and two above (the steep-downhill test)
@example(theta=-0.5, v=1.45, env="titan")
def test_trim_tilt_is_the_bisection_root_of_its_half(theta, v, env):
    config = _on_slopes(CFG, theta)
    if env == "earth":
        config = replace(config, **EARTH)
    tilt = steadystate.flying_state(config, np.float64(v)).tilt
    assert abs(tilt - _bisected_tilt(config, v)) <= 1e-12


def _fixed_point_trim_power(config, v, steps=400):
    """Flying power from the plain tilt fixed point run for many steps."""
    along = config.cobot_mass * config.gravity * math.sin(config.slope_theta)
    normal = config.cobot_mass * config.gravity * math.cos(config.slope_theta)

    def drag_at(alpha):
        return aeropower.drag_force(
            config, aeropower.projected_area(config, alpha, "flying"), v)

    alpha = np.zeros_like(v)
    for _ in range(steps):
        alpha = np.arctan2(drag_at(alpha) + along, normal)
    thrust = np.hypot(drag_at(alpha) + along, normal)
    _, per_rotor = aeropower.momentum_power(
        thrust / 4.0, 2.0 * config.air_density * config.rotor_disk_area, v,
        v * np.cos(alpha), v * np.sin(alpha),
        config.eta_propeller * config.eta_motor * config.eta_controller)
    return config.num_agents * 4 * per_rotor


@pytest.mark.parametrize("env", ["titan", "earth"])
@pytest.mark.parametrize("theta_deg", [-0.5, 0.0, 1.0, 3.0, 6.5])
def test_flying_power_matches_long_fixed_point(env, theta_deg):
    config = replace(CFG, rolling_resistance_crr=0.01,
                     slope_theta=math.radians(theta_deg))
    if env == "earth":
        config = replace(config, **EARTH)
    v = rangeopt.default_velocity_grid("flying")
    got = steadystate.flying_state(config, v).power
    want = _fixed_point_trim_power(config, v)
    assert np.isfinite(want).all()
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_flying_at_zero_speed_is_hover():
    # the hover kernel call, four rotors at a quarter of the weight each,
    # bit for bit, on Titan and on Earth
    for config in (CFG, replace(CFG, **EARTH)):
        state = steadystate.flying_state(config, 0.0)
        hover = 4 * aeropower.momentum_power(
            config.cobot_mass * config.gravity / 4.0,
            2.0 * config.air_density * config.rotor_disk_area, 0.0, 0.0, 0.0,
            _chain_efficiency(config))[1]
        assert state.tilt == 0.0
        assert state.power == config.num_agents * hover


def test_flying_tilt_grows_with_speed():
    tilts = steadystate.flying_state(CFG, [0.2, 0.8, 1.6, 3.0]).tilt
    assert np.all(np.diff(tilts) > 0)
    assert all(0 < t < math.pi / 2 for t in tilts)


def _on_slopes(config, theta):
    return replace(config, rolling_resistance_crr=0.01, slope_theta=theta)


def test_flying_power_broadcasts_over_slope_bitwise():
    # each row of an array-slope call is that slope's call, NaN included
    weak = replace(CFG, max_rotor_thrust=0.4)
    theta = np.radians(np.linspace(-0.5, 20.0, 9))
    v = np.linspace(0.0, 3.0, 40)
    rows = steadystate.flying_state(_on_slopes(weak, theta[:, None]), v).power
    per_slope = [steadystate.flying_state(_on_slopes(weak, float(th)), v).power
                 for th in theta]
    assert rows.shape == (9, 40)
    assert np.isnan(rows).any() and np.isfinite(rows).any()
    assert np.array_equal(rows, per_slope, equal_nan=True)


def _trim_at(config, v, alpha):
    """``flying_state`` at speed v with its tilt solve replaced by the tilt
    alpha: the residual it hands to ``aeropower._newton``, and the drag it
    re-evaluates at alpha."""
    newton, seen = aeropower._newton, []

    def at_alpha(residual, x, *args):
        if seen:  # the rotors' tilted-inflow solve
            return newton(residual, x, *args)
        seen.append(residual)
        return np.full(np.shape(x), alpha), np.zeros(np.shape(x), bool)

    with mock.patch.object(aeropower, "_newton", at_alpha):
        drag = steadystate.flying_state(config, v).drag
    return seen[0], drag


_TRIM_CONFIGS = [CFG, replace(CFG, **EARTH),
                 replace(CFG, shell_radius_l=0.1, body_height_h_flying=0.3)]


@settings(deadline=None)
@given(alpha=st.one_of(st.floats(-1.6, 1.6), st.sampled_from(
           [0.0, -0.0, math.pi / 2, -math.pi / 2])),
       v=st.floats(0.0, 8.0), theta=st.floats(-0.5, 0.6),
       config=st.sampled_from(_TRIM_CONFIGS))
def test_trim_residual_is_the_drag_and_weight_composition(alpha, v, theta,
                                                          config):
    # the trim writes the drag out on one cos and sin: it must equal
    # drag_force on projected_area, and the residual its tilt balance,
    # bitwise
    config = _on_slopes(config, theta)
    residual, drag = _trim_at(config, v, alpha)
    want = aeropower.drag_force(
        config, aeropower.projected_area(config, np.float64(alpha), "flying"),
        np.float64(v))
    assert drag.tobytes() == np.float64(want).tobytes()
    weight = config.cobot_mass * config.gravity
    r = np.float64(alpha) - np.arctan2(want + weight * math.sin(theta),
                                       weight * math.cos(theta))
    assert residual(np.float64(alpha))[0].tobytes() == r.tobytes()


@settings(deadline=None)
@given(alpha=st.floats(-1.5, 1.5), v=st.floats(0.1, 8.0),
       theta=st.floats(-0.5, 0.6), config=st.sampled_from(_TRIM_CONFIGS))
def test_trim_residual_slope_is_its_derivative(alpha, v, theta, config):
    # central difference away from the area's kinks at 0 and +-pi/2
    assume(min(abs(alpha - k * math.pi / 2) for k in (-1, 0, 1)) > 1e-3)
    residual = _trim_at(_on_slopes(config, theta), v, 0.0)[0]
    h = 1e-6
    left, right = residual(np.array([alpha - h, alpha + h]))[0]
    slope = residual(np.float64(alpha))[1]
    assert slope == pytest.approx((right - left) / (2 * h), rel=1e-6,
                                  abs=1e-8)


def test_trim_residual_slope_at_zero_tilt_is_one():
    # dA/da at the kink a = 0 is 0, the mean of |sin a|'s one-sided slopes,
    # so the Newton slope there is that of the a term alone
    for config, theta in itertools.product(_TRIM_CONFIGS, (-0.5, 0.0, 0.3)):
        residual = _trim_at(_on_slopes(config, theta), 1.5, 0.0)[0]
        assert residual(np.float64(0.0))[1] == 1.0
        assert residual(np.float64(-0.0))[1] == 1.0


def test_flying_trim_failure_names_broadcast_speeds(monkeypatch):
    monkeypatch.setattr(steadystate, "TRIM_MAX_ITER", 1)
    theta = np.radians([0.0, 1.0])[:, None]
    with pytest.raises(aeropower.SolverError,
                       match=r"at 4 speed\(s\), v = 0\.5 to 1 m/s$"):
        steadystate.flying_state(_on_slopes(CFG, theta), [0.5, 1.0])


def test_unconverged_inflow_raises_solver_error(monkeypatch):
    monkeypatch.setattr(aeropower, "INDUCED_MAX_ITER", 1)
    with pytest.raises(aeropower.SolverError,
                       match=r"^induced velocity Newton solve did not "
                             r"converge to 1e-10 in 1 iterations$"):
        steadystate.flying_state(CFG, rangeopt.default_velocity_grid(
            "flying"))


@pytest.mark.parametrize("env", ["titan", "earth"])
@pytest.mark.parametrize("agents", [1, 2, 8])
def test_flying_inflow_converges_in_few_iterations(monkeypatch, env,
                                                   agents):
    # the default flying grid takes at most 4 inflow Newton iterations over
    # these slopes; a cap of 5 makes a slide to bisection (about 35) fail
    monkeypatch.setattr(aeropower, "INDUCED_MAX_ITER", 5)
    config = replace(CFG, num_agents=agents)
    if env == "earth":
        config = replace(config, **EARTH)
    theta = np.radians(np.linspace(-0.5, 6.5, 15))[:, None]
    state = steadystate.flying_state(_on_slopes(config, theta),
                                     rangeopt.default_velocity_grid("flying"))
    assert np.isfinite(state.power).any()


def test_flying_infeasible_is_nan_power():
    weak = replace(CFG, max_rotor_thrust=0.01)
    state = steadystate.flying_state(weak, 1.0)
    assert state.thrust / 4 > 0.01 and math.isnan(state.power)


def test_resistive_force_area_changes_drag_only():
    v, avg = 0.7, steadystate.average_rolling_area(CFG)
    base = steadystate.rolling_resistive_force(CFG, v)
    assert steadystate.rolling_resistive_force(CFG, v, avg) == base
    extra = steadystate.rolling_resistive_force(CFG, v, 3.0 * avg) - base
    assert extra == pytest.approx(2.0 * aeropower.drag_force(CFG, avg, v),
                                  rel=1e-12)


def test_flying_totals_scale_with_agents():
    solo = replace(CFG, num_agents=1)
    one = steadystate.flying_state(solo, 1.0)
    two = steadystate.flying_state(CFG, 1.0)
    assert two.power == pytest.approx(2 * one.power, rel=1e-12)
    # the agents fly independently: the same trim per agent
    assert (one.tilt, one.drag, one.thrust) == (two.tilt, two.drag, two.thrust)


def test_rolling_cheaper_than_flying_headline():
    # same speed, ideal surface: the docked roller wins by a wide margin
    v = 0.5
    roll = steadystate.rolling_state(CFG, v).power
    fly = steadystate.flying_state(CFG, v).power
    assert roll < fly / 5


def test_rolling_power_drag_only_at_zero_crr():
    ideal = replace(CFG, rolling_resistance_crr=0.0, slope_theta=0.0)
    drag = aeropower.drag_force(CFG, steadystate.average_rolling_area(CFG),
                                0.3)
    assert steadystate.rolling_state(ideal, 0.3).torque == pytest.approx(
        drag * 0.2, rel=1e-12)


def _delivered_and_work(config, mode):
    """P eta_chain, the rotors' ideal power, and the body's mechanical power
    over the mode's speed grid, where the power is finite: rolling F_t v,
    flying num_agents v (D + W sin theta)."""
    v = rangeopt.default_velocity_grid(mode)
    if mode == "rolling":
        power = steadystate.rolling_state(config, v).power
        work = steadystate.rolling_resistive_force(config, v) * v
    else:
        state = steadystate.flying_state(config, v)
        power = state.power
        work = config.num_agents * v * (state.drag + config.cobot_mass
                                        * config.gravity
                                        * np.sin(config.slope_theta))
    feasible = np.isfinite(power)
    return power[feasible] * _chain_efficiency(config), work[feasible]


_ENERGY_CONFIGS = st.builds(
    lambda radius, rho, g, mass, crr, theta, agents: replace(
        CFG, rotor_disk_radius=radius, air_density=rho, gravity=g,
        cobot_mass=mass, rolling_resistance_crr=crr, slope_theta=theta,
        num_agents=agents),
    st.floats(0.02, 0.3), st.floats(1.0, 10.0), st.floats(1.0, 9.81),
    st.floats(0.3, 3.0), st.floats(0.0, 0.3), st.floats(-0.3, 0.5),
    st.integers(1, 8))


@settings(max_examples=40, deadline=None)
@given(config=_ENERGY_CONFIGS)
@example(config=replace(CFG, rotor_disk_radius=0.3))  # least ratio, 1.07
def test_flying_power_covers_the_work_of_drag_and_slope(config):
    # energy invariant: the rotors' ideal power is at least the work the
    # trim does against drag and the along-slope weight
    delivered, work = _delivered_and_work(config, "flying")
    assert np.all(delivered >= work)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 18: pair_power charges no axial work (f omega c over "
    "the pairs, F_t v), so at rotor_disk_radius 0.2 m the rotors' ideal "
    "power is 0.59 of F_t v"))
@settings(max_examples=40, deadline=None)
@given(config=_ENERGY_CONFIGS)
@example(config=replace(CFG, rotor_disk_radius=0.2))  # least ratio, 0.586
def test_rolling_power_covers_the_work_of_the_resistive_force(config):
    # the same invariant rolling: at least F_t v, the power that drag,
    # slope and rolling resistance dissipate
    delivered, work = _delivered_and_work(config, "rolling")
    assert np.all(delivered >= work)
