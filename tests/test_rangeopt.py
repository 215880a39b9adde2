import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mobilitylab import rangeopt, steadystate
from mobilitylab.params import ScenarioConfig, TerrainParams

CFG = ScenarioConfig()


def test_range_at_arithmetic():
    # compare the solved-power headline numbers discussed elsewhere
    assert rangeopt.range_at(10.0, 1.7, 870e3) == pytest.approx(147.9,
                                                                rel=1e-3)
    assert rangeopt.range_at(5.0, 1.7, 870e3) == pytest.approx(2 * 147.9,
                                                               rel=1e-3)
    assert rangeopt.range_at(1.0, 0.0, 870e3) == 0.0


def test_range_at_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        rangeopt.range_at(0.0, 1.0, 870e3)


@pytest.mark.parametrize("power", [math.nan, math.inf])
def test_range_at_rejects_non_finite_power(power):
    with pytest.raises(ValueError, match="power"):
        rangeopt.range_at(power, 1.0, 870e3)


@given(p=st.floats(0.1, 100), v=st.floats(0.01, 5), e=st.floats(1e3, 1e7))
def test_range_proportionality(p, v, e):
    r = rangeopt.range_at(p, v, e)
    assert rangeopt.range_at(p / 2, v, e) == pytest.approx(2 * r, rel=1e-12)
    assert rangeopt.range_at(p, v, 2 * e) == pytest.approx(2 * r, rel=1e-12)


def test_grid_validation():
    for bad in ([], [0.0, 1.0], [1.0, 0.5]):
        with pytest.raises(ValueError):
            rangeopt.range_sweep(CFG, "rolling", np.array(bad))
    with pytest.raises(ValueError):
        rangeopt.range_sweep(CFG, "hopping")


def test_optimum_attains_grid_maximum():
    for mode in ("rolling", "flying"):
        curve = rangeopt.range_sweep(CFG, mode)
        finite = curve.range_km[np.isfinite(curve.range_km)]
        assert curve.optimum_range_km == np.max(finite)
        i = int(np.nanargmax(curve.range_km))
        assert curve.optimum_v == curve.velocity[i]


def test_range_definition_holds_pointwise():
    curve = rangeopt.range_sweep(CFG, "rolling")
    expect = curve.velocity * CFG.total_energy / curve.power * 1e-3
    mask = np.isfinite(curve.range_km)
    assert np.allclose(curve.range_km[mask], expect[mask], rtol=1e-12)


def test_zero_crr_range_decreases_monotonically():
    ideal = replace(CFG, terrain=TerrainParams(0.0, 0.0))
    curve = rangeopt.range_sweep(ideal, "rolling")
    assert np.all(np.diff(curve.range_km) < 0)
    assert curve.optimum_v == curve.velocity[0]


def test_hotel_load_shrinks_range():
    base = rangeopt.range_sweep(CFG, "rolling")
    loaded = rangeopt.range_sweep(CFG, "rolling", hotel_w=5.0)
    assert loaded.optimum_range_km < base.optimum_range_km
    # hotel load favors faster travel (fixed cost amortized over speed)
    assert loaded.optimum_v >= base.optimum_v


def test_golden_refinement_improves_optimum():
    coarse = rangeopt.range_sweep(CFG, "flying",
                                  v_grid=np.linspace(0.1, 3.0, 30))
    refined = rangeopt.range_sweep(CFG, "flying",
                                   v_grid=np.linspace(0.1, 3.0, 30),
                                   refine=True)
    assert refined.optimum_range_km >= coarse.optimum_range_km - 1e-9


def test_all_infeasible_raises():
    weak = replace(CFG, vehicle=replace(CFG.vehicle, max_rotor_thrust=1e-9))
    with pytest.raises(rangeopt.AllInfeasibleError):
        rangeopt.range_sweep(weak, "rolling")


def test_rolling_at_least_doubles_flying_range():
    roll = rangeopt.range_sweep(CFG, "rolling").optimum_range_km
    fly = rangeopt.range_sweep(CFG, "flying").optimum_range_km
    assert roll >= 1.8 * fly


def _pointwise_power(config, mode, v):
    solve = (steadystate.rolling_equilibrium if mode == "rolling"
             else steadystate.flying_equilibrium)
    try:
        return solve(config, float(v)).total_electrical_power
    except steadystate.InfeasibleError:
        return math.nan


@pytest.mark.parametrize("mode", ["rolling", "flying"])
def test_batch_matches_pointwise_bitwise(mode):
    # one infeasible tail on the steep grid checks the NaN pattern too
    steep = replace(CFG, terrain=TerrainParams(0.05, 0.02),
                    vehicle=replace(CFG.vehicle, max_rotor_thrust=0.3))
    for config in (CFG, steep):
        v_grid = np.linspace(0.05, 1.0, 24)
        curve = rangeopt.range_sweep(config, mode, v_grid=v_grid)
        expect = [_pointwise_power(config, mode, v) for v in v_grid]
        assert np.array_equal(curve.power, expect, equal_nan=True)


def test_tradeoff_grid_structure():
    grid = rangeopt.tradeoff_grid(CFG, resolution=6)
    assert grid.delta_range_km.shape == (6, 6)
    # ideal corner: rolling wins; worst corner: flying wins
    assert grid.delta_range_km[0, np.argmin(np.abs(grid.theta_deg))] > 0
    assert grid.delta_range_km[-1, -1] < 0
    # advantage only shrinks as terrain worsens, along both axes
    assert np.all(np.diff(grid.delta_range_km, axis=0) <= 1e-9)
    assert np.all(np.diff(grid.delta_range_km, axis=1) <= 1e-9)


def test_tradeoff_marks_infeasible_cells():
    weak = replace(CFG, vehicle=replace(CFG.vehicle, max_rotor_thrust=1e-9))
    grid = rangeopt.tradeoff_grid(weak, resolution=3)
    assert np.all(np.isnan(grid.delta_range_km))


def test_platonic_radius_table():
    # exact table values at the platonic face counts, edge 0.4 m
    assert rangeopt.platonic_shell_radius(4, 0.4) == pytest.approx(
        math.sqrt(3 / 8) * 0.4, rel=1e-12)
    assert rangeopt.platonic_shell_radius(6, 0.4) == pytest.approx(
        math.sqrt(3) / 2 * 0.4, rel=1e-12)
    assert rangeopt.platonic_shell_radius(8, 0.4) == pytest.approx(
        math.sqrt(2) / 2 * 0.4, rel=1e-12)
    assert rangeopt.platonic_shell_radius(12, 0.4) == pytest.approx(
        math.sqrt(3) / 4 * (1 + math.sqrt(5)) * 0.4, rel=1e-12)
    # clamped above 12, floored at the single-agent half-side below
    assert rangeopt.platonic_shell_radius(20, 0.4) == \
        rangeopt.platonic_shell_radius(12, 0.4)
    assert rangeopt.platonic_shell_radius(1, 0.4) >= 0.2


def test_polygon_prism_radius():
    assert rangeopt.polygon_prism_radius(4, 0.4) == pytest.approx(
        0.4 / (2 * math.sin(math.pi / 4)), rel=1e-12)
    assert rangeopt.polygon_prism_radius(1, 0.4) == 0.2
    # circumradius grows with n at fixed side
    radii = [rangeopt.polygon_prism_radius(n, 0.4) for n in range(2, 13)]
    assert np.all(np.diff(radii) > 0)


def test_scaling_bounds_ordering():
    curve = rangeopt.scaling_bounds(CFG)
    assert list(curve.n) == list(range(1, 13))
    assert np.all(curve.ratio_upper >= curve.ratio_lower)
    assert np.all(curve.ratio_lower[1:] > 1.0)
    assert curve.ratio_upper[1] > curve.ratio_upper[0]
    assert curve.ratio_lower[1] > curve.ratio_lower[0]


def test_scaling_rejects_bad_count():
    with pytest.raises(ValueError):
        rangeopt.scaling_bounds(CFG, range(0, 3))
