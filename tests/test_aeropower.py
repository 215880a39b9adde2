import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilitylab import aeropower, params

TITAN = params.titan_defaults()
EARTH = params.earth_defaults()
VEH = params.VehicleParams()
RHO2A = 2 * TITAN.air_density * VEH.rotor_disk_area
ETA = 0.6 * 0.85 * 0.95


def _inflow(f, v=0.0, alpha=0.0, rho2a=RHO2A):
    """momentum_power's nu for a freestream v at alpha from the disk plane."""
    return aeropower.momentum_power(f, rho2a, np.abs(v), v * np.cos(alpha),
                                    v * np.sin(alpha), 1.0)[0]


# --- projected area ---------------------------------------------------------

def test_projected_area_axis_aligned():
    # A = (h |cos a| + 2 l |sin a|) w
    assert aeropower.projected_area(VEH, 0.0, "rolling") == \
        pytest.approx(0.16 * 0.4)
    assert aeropower.projected_area(VEH, 0.0, "flying") == \
        pytest.approx(0.08 * 0.4)
    assert aeropower.projected_area(VEH, math.pi / 2, "rolling") == \
        pytest.approx(2 * 0.2 * 0.4)


def test_projected_area_rejects_bad_mode():
    with pytest.raises(ValueError):
        aeropower.projected_area(VEH, 0.0, "swimming")


@given(alpha=st.floats(-10.0, 10.0))
def test_projected_area_pi_periodic_and_positive(alpha):
    a0 = aeropower.projected_area(VEH, alpha, "rolling")
    a1 = aeropower.projected_area(VEH, alpha + math.pi, "rolling")
    assert a0 > 0
    assert a0 == pytest.approx(a1, rel=1e-9, abs=1e-12)


# --- drag -------------------------------------------------------------------

def test_drag_force_value():
    # rolling, axis-aligned area, v = 1 m/s on Titan
    area = aeropower.projected_area(VEH, 0.0, "rolling")
    assert aeropower.drag_force(TITAN, area, 1.0,
                                VEH.drag_coefficient_cd) == pytest.approx(
        0.5 * 2.1 * 5.4 * 0.064, rel=1e-12)


@given(v=st.floats(0.0, 50.0))
def test_drag_quadratic_in_speed(v):
    d1 = aeropower.drag_force(TITAN, 0.1, v, VEH.drag_coefficient_cd)
    d2 = aeropower.drag_force(TITAN, 0.1, 2 * v, VEH.drag_coefficient_cd)
    assert d2 == pytest.approx(4 * d1, rel=1e-9, abs=1e-12)


# --- induced velocity: momentum_power's nu ---------------------------------

def test_hover_induced_velocity_value():
    # per-rotor hover thrust on Titan, 2-agent Rollocopter geometry
    f = 0.8 * 1.352 / 4.0
    nu = _inflow(f)
    assert nu == pytest.approx(1.1716, rel=1e-3)
    assert nu == pytest.approx(math.sqrt(f / (2 * 5.4 * VEH.rotor_disk_area)),
                               rel=1e-12)


def test_zero_thrust_zero_inflow():
    assert _inflow(0.0) == 0.0


def test_induced_velocity_input_validation():
    with pytest.raises(ValueError):
        aeropower.induced_velocity(-1.0, TITAN, VEH.rotor_disk_area)
    with pytest.raises(ValueError):
        aeropower.induced_velocity(1.0, TITAN, 0.0)


@settings(max_examples=60)
@given(f=st.floats(1e-6, 100.0), v=st.floats(0.0, 20.0),
       alpha=st.floats(0.0, 1.3))
def test_induced_velocity_satisfies_implicit_equation(f, v, alpha):
    nu = _inflow(f, v, alpha)
    rhs = f / (2 * TITAN.air_density * VEH.rotor_disk_area)
    lhs = nu * math.hypot(v * math.cos(alpha), v * math.sin(alpha) + nu)
    # solver tolerance on nu maps to ~|d lhs/d nu| * tol ~ (v + nu) * tol
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=5e-9 * (1.0 + v))


@given(f=st.floats(0.01, 10.0), v=st.floats(0.0, 5.0))
def test_induced_velocity_monotone_in_thrust(f, v):
    assert _inflow(2 * f, v) > _inflow(f, v)


def test_forward_speed_reduces_edgewise_inflow():
    f = 0.2704
    assert _inflow(f, 2.0, 0.0) < _inflow(f)


# --- bracketed Newton -------------------------------------------------------

def _cube_root_of(c, slope_sign=1.0):
    """x^3 - c and its slope (times slope_sign): r < 0 at 0, r > 0 at 2."""
    return lambda x: (x ** 3 - c, slope_sign * 3.0 * x ** 2)


def test_newton_bisects_past_a_wrong_signed_slope():
    # every Newton step points away from the root and leaves the bracket
    c = np.array([0.5, 2.0, 7.0])
    x, moving = aeropower._newton(_cube_root_of(c, -1.0), np.ones(3), 0.0,
                                  2.0, 1e-12, 200)
    assert not moving.any()
    np.testing.assert_allclose(x, np.cbrt(c), rtol=0.0, atol=1e-11)


@given(c=st.lists(st.floats(1e-6, 7.99), min_size=1, max_size=8))
def test_newton_array_call_equals_element_calls(c):
    # a converged element is frozen while the others still move
    c = np.array(c)
    x, moving = aeropower._newton(_cube_root_of(c), np.ones_like(c), 0.0,
                                  2.0, 1e-12, 200)
    each = [aeropower._newton(_cube_root_of(ci), np.ones(1), 0.0, 2.0,
                              1e-12, 200)[0][0] for ci in c]
    assert not moving.any()
    assert np.array_equal(x, each)
    np.testing.assert_allclose(x, np.cbrt(c), rtol=1e-12)


def test_newton_returns_still_moving_mask_without_raising():
    c = np.array([1.0, 0.001, 7.0])
    x, moving = aeropower._newton(_cube_root_of(c), np.ones(3), 0.0, 2.0,
                                  1e-12, 2)
    assert moving.shape == (3,) and moving[1:].all()
    assert ((x >= 0.0) & (x <= 2.0)).all()


# --- rotor power ------------------------------------------------------------


def test_hover_rotor_power_titan():
    f = 0.8 * 1.352 / 4.0
    nu, p = aeropower.momentum_power(f, RHO2A, 0.0, 0.0, 0.0, ETA)
    assert nu == _inflow(f)
    assert p == pytest.approx(0.6538, rel=1e-3)


def test_cobot_hover_power_titan_and_earth():
    assert aeropower.cobot_hover_power(TITAN, VEH) == \
        pytest.approx(2.62, rel=5e-3)
    # same vehicle hovering on Earth: two orders harder
    assert aeropower.cobot_hover_power(EARTH, VEH) == \
        pytest.approx(107.0, rel=2e-2)


def test_rotor_power_clamped_nonnegative():
    # windmilling operating point (descent-like): clamp to zero, NaN kept
    v, alpha = 10.0, 0.5
    nu, p = aeropower.momentum_power(
        np.array([1.0, math.nan]), RHO2A, v, v * math.cos(alpha),
        -v * math.sin(alpha), ETA)
    assert nu[0] < v * math.sin(alpha)
    assert p[0] == 0.0 and math.isnan(p[1])


def test_zero_thrust_at_rest_is_zero_inflow_and_power():
    # the closed form's 0 / 0 at f = 0 and v = 0 gives (0, 0)
    nu, p = aeropower.momentum_power(0.0, RHO2A, 0.0, 0.0, 0.0, ETA)
    assert nu == 0.0 and p == 0.0


def test_nan_axial_speed_stays_closed_form():
    # an infinite freestream at alpha = 0 has vz = inf * 0 = NaN: NaN
    # power, no Newton solve that cannot freeze a NaN element
    vz = np.array([math.nan, 0.0])
    nu, p = aeropower.momentum_power(0.3, RHO2A, math.inf, math.inf, vz, ETA)
    assert np.isnan(p[0]) and nu[1] == 0.0


def test_mixed_axial_speeds_equal_element_calls():
    # vz = 0 elements take the closed form, the others the tilted solve
    f = np.array([0.3, 0.3, 0.0, 0.3, 2.0, 0.3])
    vx = np.array([1.0, 1.0, 0.5, 0.0, 3.0, 2.0])
    vz = np.array([0.0, 0.4, 0.2, -0.3, 0.0, math.nan])
    speed = np.hypot(vx, vz)
    nu, p = aeropower.momentum_power(f, RHO2A, speed, vx, vz, ETA)
    each = [aeropower.momentum_power(f[i], RHO2A, speed[i], vx[i], vz[i], ETA)
            for i in range(f.size)]
    assert np.array_equal(nu, [e[0] for e in each], equal_nan=True)
    assert np.array_equal(p, [e[1] for e in each], equal_nan=True)
    assert nu[2] == p[2] == 0.0 and math.isnan(p[5])
    lhs = nu * np.hypot(vx, vz + nu)
    np.testing.assert_allclose(lhs[:5], f[:5] / RHO2A, rtol=1e-9)


def test_induced_velocity_broadcasts_over_disk_area():
    rho2a = 2 * TITAN.air_density * np.array([[0.01], [VEH.rotor_disk_area]])
    v = np.array([0.0, 2.0])
    nu = _inflow(0.3, v, 0.4, rho2a)
    assert nu.shape == (2, 2)
    for i, j in itertools.product(range(2), range(2)):
        assert nu[i, j] == _inflow(0.3, v[j], 0.4, rho2a[i, 0])


# thrust, freestream speed and angle: descent (clamped power), zero thrust
# and NaN included; NaN v or alpha gives a NaN axial speed
_power_inputs = st.tuples(st.floats(0.0, 10.0) | st.just(math.nan),
                          *[st.floats(-10.0, 10.0) | st.just(math.nan)] * 2)


@given(points=st.lists(_power_inputs, min_size=1, max_size=8))
def test_rotor_power_scalar_matches_array(points):
    def power(f, v, alpha):
        return aeropower.momentum_power(f, RHO2A, np.abs(v), v * np.cos(alpha),
                                        v * np.sin(alpha), ETA)[1]

    batch = power(*(np.array(col) for col in zip(*points)))
    scalar = [power(*p) for p in points]
    assert np.array_equal(batch, scalar, equal_nan=True)
    assert all(p >= 0.0 or math.isnan(p) for p in scalar)


@given(f=st.floats(0.01, 10.0), v=st.floats(0.0, 5.0),
       alpha=st.floats(-1.0, 1.0))
def test_power_scales_inverse_with_efficiency(f, v, alpha):
    args = f, RHO2A, v, v * math.cos(alpha), v * math.sin(alpha)
    nu_full, p_full = aeropower.momentum_power(*args, 1.0)
    nu_chain, p_chain = aeropower.momentum_power(*args, ETA)
    assert nu_chain == nu_full
    assert p_chain == pytest.approx(p_full / ETA, rel=1e-12)


# hover, edgewise with rhs << v^2 (the cancellation regime of the closed
# form) and tilted operating points, mixed in one array
_op_points = st.one_of(
    st.tuples(st.floats(1e-6, 100.0), st.just(0.0), st.floats(-1.3, 1.3)),
    st.tuples(st.floats(1e-9, 1e-3), st.floats(1.0, 50.0), st.just(0.0)),
    st.tuples(st.floats(1e-6, 100.0), st.floats(0.0, 20.0),
              st.floats(-1.0, 1.3)),
)


@settings(max_examples=60)
@given(points=st.lists(_op_points, min_size=1, max_size=12))
def test_array_induced_velocity_matches_scalar_calls(points):
    f, v, alpha = (np.array(col) for col in zip(*points))
    nu = _inflow(f, v, alpha)
    scalar = [_inflow(*p) for p in points]
    assert np.array_equal(nu, scalar)
    rhs = f / (2 * TITAN.air_density * VEH.rotor_disk_area)
    lhs = nu * np.hypot(v * np.cos(alpha), v * np.sin(alpha) + nu)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=0.0)
