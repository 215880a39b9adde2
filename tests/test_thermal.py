import math

import pytest
from hypothesis import assume, given, strategies as st

from mobilitylab import thermal

TITAN = -179.0  # degC, the Titan preset's ambient temperature


def _row(t, ambient=TITAN):
    return thermal.sizing_table(ambient, [t])[0]


def _loss(t, ambient=TITAN):
    return _row(t, ambient)[1]


def test_loss_pins():
    assert _loss(0.01) == pytest.approx(9.90, rel=5e-3)
    assert _loss(0.02) == pytest.approx(5.40, rel=5e-3)


def test_no_gradient_no_loss():
    assert _loss(0.02, ambient=thermal.SET_POINT) == 0.0


def test_spec_validation():
    # t must be finite and r2 = r1 + t exceed r1: no zero, negative, NaN,
    # infinite or sub-resolution t
    for t in (0.0, -0.05, math.nan, math.inf, 1e-300):
        with pytest.raises(ValueError, match="^thickness must be finite"):
            thermal.sizing_table(TITAN, [t])


@given(dt=st.floats(1.0, 300.0))
def test_loss_linear_in_gradient(dt):
    base = _loss(0.02, ambient=thermal.SET_POINT - dt)
    assert _loss(0.02, ambient=thermal.SET_POINT - 2 * dt) == \
        pytest.approx(2 * base, rel=1e-12)


@given(t1=st.floats(0.002, 0.2), t2=st.floats(0.002, 0.2))
def test_loss_strictly_decreasing_in_thickness(t1, t2):
    lo, hi = sorted((t1, t2))
    if hi - lo < 1e-6:
        return
    assert _loss(hi) < _loss(lo)


def test_thickness_inversion_pin():
    # budget whose delivered loss is the 0.01 m conduction value
    budget = _loss(0.01) / thermal.HEATER_EFFICIENCY
    t = thermal.thickness_for_budget(budget, TITAN)
    assert t == pytest.approx(0.010, rel=1e-9)


@given(budget=st.floats(1.0, 50.0), ambient=st.floats(-200.0, -1.0))
def test_thickness_round_trips(budget, ambient):
    target = budget * thermal.HEATER_EFFICIENCY
    assume(target > _loss(1e12, ambient))  # above the asymptote
    t = thermal.thickness_for_budget(budget, ambient)
    assert _loss(t, ambient) == pytest.approx(target, rel=1e-9)


def test_thickness_monotone_in_budget():
    ts = [thermal.thickness_for_budget(b, TITAN)
          for b in (1.5, 3.0, 6.0, 12.0)]
    assert all(b < a for a, b in zip(ts, ts[1:]))


def test_thickness_rejects_unreachable_budget():
    # infinite-thickness asymptote 4 pi k r1 (T1 - T2)
    q_min = 4 * math.pi * 0.004 * 0.1 * 179.0
    assert _loss(1e6) == pytest.approx(q_min, rel=1e-6)
    with pytest.raises(ValueError, match="asymptote"):
        thermal.thickness_for_budget(
            q_min / thermal.HEATER_EFFICIENCY * 0.99, TITAN)
    for budget in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^budget must be finite"):
            thermal.thickness_for_budget(budget, TITAN)


def test_shell_mass_pin():
    mass = _row(0.01)[3]
    assert mass == pytest.approx(
        1.9 * (4 / 3) * math.pi * (0.11 ** 3 - 0.1 ** 3), rel=1e-12)
    assert mass == pytest.approx(2.63e-3, rel=5e-3)


def test_sizing_table_shape():
    rows = thermal.sizing_table(TITAN, [0.01, 0.02])
    assert len(rows) == 2
    assert rows[0][1] == pytest.approx(9.90, rel=5e-3)
    assert rows[1][1] == pytest.approx(5.40, rel=5e-3)
    for t, loss, heater, mass in rows:
        assert heater == pytest.approx(loss / 0.95, rel=1e-12)
        assert mass > 0
