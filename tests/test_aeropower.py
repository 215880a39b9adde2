import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilitylab import aeropower, params

TITAN = params.titan_defaults()
EARTH = params.earth_defaults()
VEH = params.VehicleParams()


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
    with pytest.raises(ValueError, match="mode"):
        aeropower.drag_fn(TITAN, VEH, "swimming")


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


@given(alpha=st.floats(allow_nan=False, allow_infinity=False),
       v=st.floats(allow_nan=False, allow_infinity=False),
       mode=st.sampled_from(["rolling", "flying"]),
       env=st.sampled_from([TITAN, EARTH]))
def test_drag_fn_matches_drag_force_bitwise(alpha, v, mode, env):
    got = aeropower.drag_fn(env, VEH, mode)(alpha, v)
    area = aeropower.projected_area(VEH, alpha, mode)
    want = aeropower.drag_force(env, area, v, VEH.drag_coefficient_cd)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# --- induced velocity -------------------------------------------------------

def test_hover_induced_velocity_value():
    # per-rotor hover thrust on Titan, 2-agent Rollocopter geometry
    f = 0.8 * 1.352 / 4.0
    nu = aeropower.induced_velocity(f, TITAN, VEH.rotor_disk_area)
    assert nu == pytest.approx(1.1716, rel=1e-3)
    assert nu == pytest.approx(math.sqrt(f / (2 * 5.4 * VEH.rotor_disk_area)),
                               rel=1e-12)


def test_zero_thrust_zero_inflow():
    assert aeropower.induced_velocity(0.0, TITAN, VEH.rotor_disk_area) == 0.0


def test_induced_velocity_input_validation():
    with pytest.raises(ValueError):
        aeropower.induced_velocity(-1.0, TITAN, VEH.rotor_disk_area)
    with pytest.raises(ValueError):
        aeropower.induced_velocity(1.0, TITAN, 0.0)


@settings(max_examples=60)
@given(f=st.floats(1e-6, 100.0), v=st.floats(0.0, 20.0),
       alpha=st.floats(0.0, 1.3))
def test_induced_velocity_satisfies_implicit_equation(f, v, alpha):
    nu = aeropower.induced_velocity(f, TITAN, VEH.rotor_disk_area,
                                    v_inf=v, alpha=alpha)
    rhs = f / (2 * TITAN.air_density * VEH.rotor_disk_area)
    lhs = nu * math.hypot(v * math.cos(alpha), v * math.sin(alpha) + nu)
    # solver tolerance on nu maps to ~|d lhs/d nu| * tol ~ (v + nu) * tol
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=5e-9 * (1.0 + v))


@given(f=st.floats(0.01, 10.0), v=st.floats(0.0, 5.0))
def test_induced_velocity_monotone_in_thrust(f, v):
    nu1 = aeropower.induced_velocity(f, TITAN, VEH.rotor_disk_area, v_inf=v)
    nu2 = aeropower.induced_velocity(2 * f, TITAN, VEH.rotor_disk_area,
                                     v_inf=v)
    assert nu2 > nu1


def test_forward_speed_reduces_edgewise_inflow():
    f = 0.2704
    nu0 = aeropower.induced_velocity(f, TITAN, VEH.rotor_disk_area)
    nu1 = aeropower.induced_velocity(f, TITAN, VEH.rotor_disk_area,
                                     v_inf=2.0, alpha=0.0)
    assert nu1 < nu0


# --- rotor power ------------------------------------------------------------

def test_hover_rotor_power_titan():
    f = 0.8 * 1.352 / 4.0
    nu = aeropower.induced_velocity(f, TITAN, VEH.rotor_disk_area)
    p = aeropower.rotor_power(f, 0.0, 0.0, nu, 0.6, 0.85, 0.95)
    assert p == pytest.approx(0.6538, rel=1e-3)


def test_cobot_hover_power_titan_and_earth():
    assert aeropower.cobot_hover_power(TITAN, VEH) == \
        pytest.approx(2.62, rel=5e-3)
    # same vehicle hovering on Earth: two orders harder
    assert aeropower.cobot_hover_power(EARTH, VEH) == \
        pytest.approx(107.0, rel=2e-2)


def test_rotor_power_clamped_nonnegative():
    # windmilling operating point (descent-like): clamp to zero
    assert aeropower.rotor_power(1.0, 10.0, 0.5, 0.01, 0.6, 0.85, 0.95) == 0.0


def test_rotor_power_efficiency_validation():
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            aeropower.rotor_power(1.0, 0.0, 0.0, 1.0, bad, 0.85, 0.95)


# thrust, v_inf, alpha, nu: negative aero power (clamped) and NaN included
_power_inputs = st.tuples(*[st.floats(-10.0, 10.0) | st.just(math.nan)] * 4)


@given(points=st.lists(_power_inputs, min_size=1, max_size=8))
def test_rotor_power_scalar_matches_array(points):
    arrays = (np.array(col) for col in zip(*points))
    batch = aeropower.rotor_power(*arrays, 0.6, 0.85, 0.95)
    scalar = [aeropower.rotor_power(*p, 0.6, 0.85, 0.95) for p in points]
    assert np.array_equal(batch, scalar, equal_nan=True)
    assert all(p >= 0.0 or math.isnan(p) for p in scalar)


@given(f=st.floats(0.01, 10.0))
def test_power_scales_inverse_with_efficiency(f):
    nu = aeropower.induced_velocity(f, TITAN, VEH.rotor_disk_area)
    p_full = aeropower.rotor_power(f, 0.0, 0.0, nu, 1.0, 1.0, 1.0)
    p_chain = aeropower.rotor_power(f, 0.0, 0.0, nu, 0.6, 0.85, 0.95)
    assert p_chain == pytest.approx(p_full / (0.6 * 0.85 * 0.95), rel=1e-12)


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
    nu = aeropower.induced_velocity(f, TITAN, VEH.rotor_disk_area,
                                    v_inf=v, alpha=alpha)
    scalar = [aeropower.induced_velocity(p[0], TITAN, VEH.rotor_disk_area,
                                         v_inf=p[1], alpha=p[2])
              for p in points]
    assert np.array_equal(nu, scalar)
    rhs = f / (2 * TITAN.air_density * VEH.rotor_disk_area)
    lhs = nu * np.hypot(v * np.cos(alpha), v * np.sin(alpha) + nu)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=0.0)
