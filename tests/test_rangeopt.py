import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilitylab import aeropower, params, rangeopt, steadystate
from mobilitylab.params import EARTH, ScenarioConfig

CFG = ScenarioConfig()


def test_grid_validation():
    with pytest.raises(ValueError, match="mode must be"):
        rangeopt.range_sweep(CFG, "hopping")


def test_default_velocity_grids_are_shared_and_read_only():
    for mode, spec in (("rolling", rangeopt.ROLLING_V_GRID),
                       ("flying", rangeopt.FLYING_V_GRID)):
        grid = rangeopt.default_velocity_grid(mode)
        assert grid is rangeopt.default_velocity_grid(mode)
        assert np.array_equal(grid, np.linspace(*spec))
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0


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
    ideal = replace(CFG, rolling_resistance_crr=0.0, slope_theta=0.0)
    curve = rangeopt.range_sweep(ideal, "rolling")
    assert np.all(np.diff(curve.range_km) < 0)
    assert curve.optimum_v == curve.velocity[0]


def test_hotel_load_shrinks_range():
    base = rangeopt.range_sweep(CFG, "rolling")
    loaded = rangeopt.range_sweep(CFG, "rolling", hotel_w=5.0)
    assert loaded.optimum_range_km < base.optimum_range_km
    # hotel load favors faster travel (fixed cost amortized over speed)
    assert loaded.optimum_v >= base.optimum_v


def _bracket_grid(speeds, optimum_v):
    """The fine grid a refined sweep searches around the coarse optimum."""
    i = int(np.flatnonzero(speeds == optimum_v)[0])
    return np.linspace(speeds[max(0, i - 1)],
                       speeds[min(len(speeds) - 1, i + 1)],
                       rangeopt.REFINE_POINTS)


def _assert_refined_is_bracket_sweep(config, mode, hotel_w=0.0):
    """``range_sweep``'s refined optimum is the sweep of the coarse
    optimum's bracket grid, bit for bit, and the curve is the coarse one;
    returns the coarse curve, the refined one and the bracket grid."""
    coarse = rangeopt.range_sweep(config, mode, hotel_w=hotel_w)
    refined = rangeopt.range_sweep(config, mode, hotel_w=hotel_w,
                                   refine=True)
    fine = _bracket_grid(coarse.velocity, coarse.optimum_v)
    direct_v, direct_opt = rangeopt._sweep(config, mode, fine, hotel_w)[2:]
    assert refined.optimum_v == direct_v
    assert refined.optimum_range_km == direct_opt
    for name in ("velocity", "power", "range_km"):
        assert np.array_equal(getattr(refined, name), getattr(coarse, name),
                              equal_nan=True)
    return coarse, refined, fine


def test_golden_refinement_improves_optimum():
    for mode, hotel_w in itertools.product(("rolling", "flying"),
                                           (0.0, 2.0)):
        coarse, refined, fine = _assert_refined_is_bracket_sweep(
            CFG, mode, hotel_w)
        assert refined.optimum_range_km >= coarse.optimum_range_km
        assert fine[0] <= refined.optimum_v <= fine[-1]


@pytest.mark.parametrize("edge, terrain, v_fine", [
    # the range still grows at the rolling grid's last speed, 2.0 m/s
    (-1, {"rolling_resistance_crr": 0.2, "slope_theta": 0.1}, 2.0),
    # a thrust limit between the pair forces at 0.01 and 0.02 m/s
    # (0.0792860 and 0.0793138 N) leaves only the first speed feasible
    (0, {"max_rotor_thrust": 0.0793}, 0.01583)])
def test_refined_bracket_is_clipped_at_the_grid_edge(edge, terrain, v_fine):
    # the bracket of an optimum on the grid's edge is that speed and its one
    # neighbour
    config = replace(CFG, **EARTH, **terrain)
    coarse, refined, fine = _assert_refined_is_bracket_sweep(config,
                                                             "rolling")
    speeds = coarse.velocity
    assert coarse.optimum_v == speeds[edge]
    assert np.array_equal(fine, np.linspace(
        *speeds[[0, 1] if edge == 0 else [-2, -1]], rangeopt.REFINE_POINTS))
    assert refined.optimum_v == pytest.approx(v_fine, rel=1e-12)
    assert refined.optimum_range_km >= coarse.optimum_range_km
    if edge == 0:
        assert np.isfinite(coarse.range_km).sum() == 1


def _count_powers(monkeypatch):
    calls = []
    powers = rangeopt._powers

    def counted(*args, **kwargs):
        calls.append(args[1])
        return powers(*args, **kwargs)

    monkeypatch.setattr(rangeopt, "_powers", counted)
    return calls


def test_refined_sweep_is_two_array_calls(monkeypatch):
    calls = _count_powers(monkeypatch)
    for mode in ("rolling", "flying"):
        rangeopt.range_sweep(CFG, mode, refine=True)
    assert calls == ["rolling", "rolling", "flying", "flying"]


def test_tradeoff_grid_is_one_flying_call_and_one_rolling_call_per_block(
        monkeypatch):
    # a block holds as many C_rr rows (theta x v each) as fit the budget,
    # and at least one
    calls = _count_powers(monkeypatch)
    for resolution, blocks in ((3, 1), (7, 1), (11, 2), (20, 5)):
        rows = max(1, rangeopt.BLOCK_POINTS // (
            resolution * rangeopt.ROLLING_V_GRID[2]))
        assert blocks == math.ceil(resolution / rows)
        rangeopt.tradeoff_grid(CFG, resolution=resolution)
        assert calls == ["flying"] + ["rolling"] * blocks
        calls.clear()


def test_scaling_bounds_is_one_flying_call_and_two_rolling_calls_per_block(
        monkeypatch):
    calls = _count_powers(monkeypatch)
    rangeopt.scaling_bounds(CFG, range(1, 13))
    assert calls == ["flying"] + ["rolling"] * 2
    calls.clear()
    # 1000 points hold 5 agent counts of 200 speeds: blocks of 5, 5 and 2
    monkeypatch.setattr(rangeopt, "BLOCK_POINTS", 1000)
    rangeopt.scaling_bounds(CFG, range(1, 13))
    assert calls == ["flying"] + ["rolling"] * 2 * 3


def _same_bits(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _count_points(monkeypatch):
    """Record the batch size, in points, of every ``_powers`` call."""
    points = []
    powers = rangeopt._powers

    def counted(config, mode, v, shell=None):
        points.append(math.prod(np.broadcast_shapes(np.shape(v), *map(
            np.shape, (*vars(config).values(), *(shell or ()))))))
        return powers(config, mode, v, shell)

    monkeypatch.setattr(rangeopt, "_powers", counted)
    return points


@pytest.mark.parametrize("mode", ["rolling", "flying"])
def test_ten_thousand_row_column_runs_in_bounded_blocks(monkeypatch, mode):
    # a 10 000-row slope column is 2e6 points per grid; each block holds
    # 81 rows, so its first and last rows are checked against per-row calls;
    # the steep rows leave rolling infeasible at a 0.3 N thrust limit
    config = replace(CFG, max_rotor_thrust=0.3)
    slopes = np.linspace(-0.01, 0.35, 10_000)
    points = _count_points(monkeypatch)
    v_opt, r_opt = rangeopt.best_range(
        replace(config, slope_theta=slopes[:, None]), mode)
    assert v_opt.shape == r_opt.shape == slopes.shape
    assert len(points) > 100
    assert max(points) <= rangeopt.BLOCK_POINTS
    rows = max(1, rangeopt.BLOCK_POINTS // rangeopt.ROLLING_V_GRID[2])
    sample = np.union1d(np.arange(0, slopes.size, rows),
                        np.arange(rows - 1, slopes.size, rows))
    each = [rangeopt.best_range(replace(config, slope_theta=slopes[k]), mode)
            for k in sample]
    assert _same_bits(np.stack([v_opt[sample], r_opt[sample]], axis=-1),
                      each)
    if mode == "rolling":
        assert np.isnan(r_opt).any() and np.isfinite(r_opt).any()


def test_scalar_optimum_is_one_type_of_shape_zero():
    weak = replace(CFG, max_rotor_thrust=1e-9)
    for config, mode in itertools.product((CFG, weak), ("rolling", "flying")):
        v_opt, r_opt = rangeopt.best_range(config, mode)
        assert type(v_opt) is type(r_opt)
        assert np.shape(v_opt) == np.shape(r_opt) == ()
        assert isinstance(v_opt, float)  # a numpy scalar, not a 0-d array


@pytest.mark.parametrize("limit", [8.0, 0.3])
@pytest.mark.parametrize("resolution", [1, 3, 7, 11, 20, 100])
def test_tradeoff_grid_equals_per_row_best_range_bitwise(resolution, limit):
    # 11 rows split into blocks of 7 and 4; a row of 100 x 200 points is
    # past the budget on its own; thrust limit 0.3 N leaves high-C_rr rows
    # infeasible at every slope
    config = replace(CFG, max_rotor_thrust=limit)
    grid = rangeopt.tradeoff_grid(config, (0.01, 0.4), (-0.5, 6.0),
                                  resolution)
    slopes = np.radians(grid.theta_deg)[:, None]
    fly = rangeopt.best_range(_on_terrain(config, grid.crr[0], slopes),
                              "flying")[1]
    delta = [rangeopt.best_range(_on_terrain(config, crr, slopes),
                                 "rolling")[1] - fly for crr in grid.crr]
    assert _same_bits(grid.delta_range_km, delta)
    assert _same_bits(grid.flying_range_km, [fly] * resolution)
    if limit < 1.0 and resolution >= 3:
        assert np.isnan(grid.delta_range_km).all(axis=1).any()
        assert np.isfinite(grid.delta_range_km).any()


@pytest.mark.parametrize("budget", [rangeopt.BLOCK_POINTS, 1000])
@pytest.mark.parametrize("n_range", [range(1, 13), range(2, 8), range(0)])
def test_scaling_bounds_equals_per_n_sweeps_bitwise(monkeypatch, n_range,
                                                    budget):
    # a budget of 1000 points splits the agent counts into blocks of 5
    monkeypatch.setattr(rangeopt, "BLOCK_POINTS", budget)
    curve = rangeopt.scaling_bounds(CFG, n_range)
    width = CFG.shell_width_w
    speeds = rangeopt.default_velocity_grid("rolling")
    fly = rangeopt.range_sweep(CFG, "flying").optimum_range_km
    lower, upper = [], []
    for n in n_range:
        config = replace(CFG, num_agents=n)
        r_up = rangeopt.platonic_shell_radius(n, width)
        r_lo = rangeopt.polygon_prism_radius(n, width)
        upper.append(rangeopt._sweep(config, "rolling", speeds, shell=(
            r_up, math.pi * r_up ** 2, 2 * n))[3] / fly)
        lower.append(rangeopt._sweep(config, "rolling", speeds, shell=(
            r_lo, 2.0 * r_lo * width, 2 * n))[3] / fly)
    assert list(curve.n) == list(n_range)
    assert _same_bits(curve.ratio_upper, upper)
    assert _same_bits(curve.ratio_lower, lower)


@pytest.mark.parametrize("resolution", [0, -3])
def test_tradeoff_grid_rejects_empty_resolution(resolution):
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        rangeopt.tradeoff_grid(CFG, resolution=resolution)


@pytest.mark.parametrize("axis, span, name", [
    ("crr_range", (-0.1, 0.2), "rolling_resistance_crr"),
    ("theta_range_deg", (-0.5, 95.0), "slope_theta")])
def test_tradeoff_grid_rejects_out_of_domain_axis(axis, span, name):
    # the grid's terrain columns are configs: one bad row fails the call
    with pytest.raises(params.ValidationError, match=name):
        rangeopt.tradeoff_grid(CFG, **{axis: span})


@pytest.mark.parametrize("mode", ["rolling", "flying"])
@pytest.mark.parametrize("env", [{}, EARTH])
@pytest.mark.parametrize("lam", [0.25, 2.0, 3.0, 4.0])
def test_similarity_laws(mode, env, lam):
    # on flat ground with no hotel load, g and max_rotor_thrust times lam
    # with v times sqrt(lam) scale every force by lam and the inflow by
    # sqrt(lam): R* / lam at v* sqrt(lam); rho times lam with v times
    # 1 / sqrt(lam) keep every force and scale the inflow by 1 / sqrt(lam):
    # R* at v* / sqrt(lam)
    config = replace(CFG, **env)
    speeds = rangeopt.default_velocity_grid(mode)
    root = math.sqrt(lam)
    v0, r0 = rangeopt._sweep(config, mode, speeds)[2:]
    assert np.isfinite(r0)
    heavy = replace(config, gravity=lam * config.gravity,
                    max_rotor_thrust=lam * config.max_rotor_thrust)
    v1, r1 = rangeopt._sweep(heavy, mode, speeds * root)[2:]
    assert v1 == pytest.approx(v0 * root, rel=1e-12, abs=0.0)
    assert r1 == pytest.approx(r0 / lam, rel=1e-12, abs=0.0)
    dense = replace(config, air_density=lam * config.air_density)
    v2, r2 = rangeopt._sweep(dense, mode, speeds / root)[2:]
    assert v2 == pytest.approx(v0 / root, rel=1e-12, abs=0.0)
    assert r2 == pytest.approx(r0, rel=1e-12, abs=0.0)


def test_default_rolling_shell_is_the_docked_cylinder():
    v = rangeopt.default_velocity_grid("rolling")
    shell = (CFG.shell_radius_l,
             steadystate.average_rolling_area(CFG), steadystate.CYLINDER_PAIRS)
    assert np.array_equal(rangeopt._powers(CFG, "rolling", v),
                          rangeopt._powers(CFG, "rolling", v, shell),
                          equal_nan=True)


def _on_terrain(config, crr, theta):
    return replace(config, rolling_resistance_crr=crr, slope_theta=theta)


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(("rolling", "flying")),
       terrain=st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(-0.5, 0.6)),
                        min_size=1, max_size=4),
       hotel_w=st.floats(0.0, 5.0),
       limit=st.sampled_from((8.0, 0.3, 0.25)))
def test_best_range_broadcasts_over_terrain_bitwise(mode, terrain, hotel_w,
                                                    limit):
    # thrust limit 0.3 N leaves steep rolling rows infeasible, 0.25 N
    # every flying row
    config = replace(CFG, max_rotor_thrust=limit)
    crr, theta = np.array(terrain).T
    v_opt, r_opt = rangeopt.best_range(
        _on_terrain(config, crr[:, None], theta[:, None]), mode, hotel_w)
    assert v_opt.shape == r_opt.shape == (len(terrain),)
    for k, (c, th) in enumerate(terrain):
        one = _on_terrain(config, c, th)
        v1, r1 = rangeopt.best_range(one, mode, hotel_w)
        assert np.array_equal([v_opt[k], r_opt[k]], [v1, r1], equal_nan=True)
        if np.isnan(r1):
            assert np.isnan(v1)
            for refine in (False, True):
                with pytest.raises(rangeopt.AllInfeasibleError):
                    rangeopt.range_sweep(one, mode, hotel_w=hotel_w,
                                         refine=refine)
        else:
            curve = _assert_refined_is_bracket_sweep(one, mode, hotel_w)[0]
            assert curve.optimum_v == v1
            assert curve.optimum_range_km == r1


#: the benchmark's flying boxes: environment, agents, slope range in degrees
_FLYING_BOXES = [("titan", 2, (-0.5, 2.0)), ("titan", 2, (-0.4, 5.0)),
                 ("earth", 2, (-0.4, 5.0)), ("earth", 8, (-0.5, 6.5))]


def _solve_flying_box(env, agents, theta_deg):
    """A 7 x 7 trade-off grid and refined flying sweeps at both slopes."""
    config = replace(CFG, num_agents=agents)
    if env == "earth":
        config = replace(config, **EARTH)
    grid = rangeopt.tradeoff_grid(config, (0.01, 0.25), theta_deg, 7)
    assert np.isfinite(grid.flying_range_km).all()
    for theta in np.radians(theta_deg):
        rangeopt.range_sweep(_on_terrain(config, 0.01, theta), "flying",
                             refine=True)


@pytest.mark.parametrize("env, agents, theta_deg", _FLYING_BOXES)
def test_flying_trim_converges_in_few_iterations(monkeypatch, env, agents,
                                                 theta_deg):
    # the benchmark's boxes take at most 6 Newton iterations; a cap of 7
    # makes a return to linear convergence (about 32) fail here
    monkeypatch.setattr(steadystate, "TRIM_MAX_ITER", 7)
    _solve_flying_box(env, agents, theta_deg)


@pytest.mark.parametrize("env, agents, theta_deg", _FLYING_BOXES)
def test_flying_inflow_converges_in_few_iterations_on_the_boxes(
        monkeypatch, env, agents, theta_deg):
    # the trim's tilted inflow takes at most 4 Newton iterations there; a
    # cap of 5 makes a slide to bisection (about 35) fail here
    monkeypatch.setattr(aeropower, "INDUCED_MAX_ITER", 5)
    _solve_flying_box(env, agents, theta_deg)


@pytest.mark.parametrize("mode", ["rolling", "flying"])
@pytest.mark.parametrize("group, name, column", [
    ("environment", "air_density", (1.0, 5.4, 60.0)),
    ("vehicle", "rotor_disk_radius", (0.05, 0.0762, 0.1)),
    ("vehicle", "eta_propeller", (0.5, 0.6, 1.0)),
    ("vehicle", "eta_motor", (0.5, 0.85, 1.0)),
    ("vehicle", "eta_controller", (0.5, 0.95, 1.0)),
    # fields one mode or both ignore
    ("terrain", "rolling_resistance_crr", (0.0, 0.01, 0.1)),
    ("environment", "ambient_temperature", (-179.0, 15.0)),
    ("vehicle", "thrust_constant_k_t", (1e-6, 2e-6, 4e-6)),
    ("vehicle", "body_height_h_flying", (0.04, 0.08))])
def test_best_range_broadcasts_over_a_field_column_bitwise(mode, group,
                                                           name, column):
    # an (N, 1) field of each group (environment, vehicle, terrain) gives,
    # row by row, the scalar calls, also where the mode ignores it; the
    # densest air leaves the fast flying speeds infeasible
    def with_field(value):
        return replace(CFG, **{name: value})

    v_opt, r_opt = rangeopt.best_range(with_field(np.array(column)[:, None]),
                                       mode)
    each = [rangeopt.best_range(with_field(x), mode) for x in column]
    assert _same_bits(np.stack([v_opt, r_opt], axis=-1), each)


def test_best_range_broadcasts_an_ignored_field_with_the_read_ones():
    # flying ignores C_rr: a (3, 1, 1) C_rr and a (2, 1) slope give (3, 2),
    # each row the slopes' call, and a (3, 1) hotel load (3,)
    slopes = np.array([[0.0], [0.02]])
    crr = np.array([0.0, 0.01, 0.1])[:, None, None]
    v_opt, r_opt = rangeopt.best_range(_on_terrain(CFG, crr, slopes), "flying")
    by_slope = rangeopt.best_range(_on_terrain(CFG, 0.01, slopes), "flying")
    assert v_opt.shape == r_opt.shape == (3, 2)
    assert _same_bits(np.stack([v_opt, r_opt]),
                      np.stack([np.broadcast_to(x, (3, 2))
                                for x in by_slope]))
    hotel = np.array([0.0, 0.5, 1.0])[:, None]
    v_opt, r_opt = rangeopt.best_range(CFG, "flying", hotel)
    assert _same_bits(np.stack([v_opt, r_opt], axis=-1),
                      [rangeopt.best_range(CFG, "flying", h)
                       for h in hotel[:, 0]])


@pytest.mark.parametrize("hotel_w", [
    -0.015, -1.0, math.nan, math.inf, -math.inf,
    np.array([[0.5], [-0.1]]), np.array([[0.5], [math.nan]])],
    ids=["small-negative", "negative", "nan", "inf", "-inf",
         "negative-element", "nan-element"])
@pytest.mark.parametrize("mode", ["rolling", "flying"])
def test_bad_hotel_load_names_hotel_w(mode, hotel_w):
    # not a feasibility verdict, nor a range from a load that adds power
    with pytest.raises(ValueError, match="^hotel_w must be finite and >= 0"):
        rangeopt.best_range(CFG, mode, hotel_w)
    with pytest.raises(ValueError, match="^hotel_w must be finite and >= 0"):
        rangeopt.range_sweep(CFG, mode, hotel_w=hotel_w)


@pytest.mark.parametrize("mode, name", [
    ("flying", "rolling_resistance_crr"), ("rolling", "ambient_temperature")])
def test_column_over_an_ignored_field_is_one_sweep(monkeypatch, mode, name):
    # 10 000 rows of a field the mode never reads, alone or crossed with a
    # column it reads, give the call without them, broadcast, bit for bit,
    # from as few _powers calls as 10 rows
    calls = _count_powers(monkeypatch)
    for read in ({}, {"slope_theta": np.linspace(0.0, 0.1, 5)[:, None]}):
        want = rangeopt.best_range(replace(CFG, **read), mode)
        for rows in (10, 10_000):
            column = np.linspace(0.0, 0.3, rows).reshape(
                -1, *[1] * (np.ndim(want[0]) + 1))
            calls.clear()
            got = rangeopt.best_range(
                replace(CFG, **read, **{name: column}), mode)
            assert calls == [mode]
            assert _same_bits(got, [np.broadcast_to(x, (rows, *np.shape(x)))
                                    for x in want])


def test_best_range_marks_infeasible_without_raising():
    weak = replace(CFG, max_rotor_thrust=1e-9)
    for mode in ("rolling", "flying"):
        v_opt, r_opt = rangeopt.best_range(
            _on_terrain(weak, 0.01, np.zeros((3, 1))), mode)
        assert np.isnan(v_opt).all() and np.isnan(r_opt).all()


def test_all_infeasible_raises():
    weak = replace(CFG, max_rotor_thrust=1e-9)
    with pytest.raises(rangeopt.AllInfeasibleError):
        rangeopt.range_sweep(weak, "rolling")


def test_rolling_at_least_doubles_flying_range():
    roll = rangeopt.range_sweep(CFG, "rolling").optimum_range_km
    fly = rangeopt.range_sweep(CFG, "flying").optimum_range_km
    assert roll >= 1.8 * fly


def _pointwise_power(config, mode, v):
    state = (steadystate.rolling_state if mode == "rolling"
             else steadystate.flying_state)
    return state(config, float(v)).power


@pytest.mark.parametrize("mode", ["rolling", "flying"])
def test_batch_matches_pointwise_bitwise(mode):
    # one infeasible tail on the steep grid checks the NaN pattern too
    steep = replace(CFG, rolling_resistance_crr=0.05, slope_theta=0.02,
                    max_rotor_thrust=0.3)
    speeds = np.linspace(0.05, 1.0, 24)
    for config in (CFG, steep):
        powers = rangeopt._sweep(config, mode, speeds)[0]
        expect = [_pointwise_power(config, mode, v) for v in speeds]
        assert np.array_equal(powers, expect, equal_nan=True)


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
    weak = replace(CFG, max_rotor_thrust=1e-9)
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


def test_scaling_rejects_bad_count(monkeypatch):
    # every n is checked before any sweep runs
    calls = _count_powers(monkeypatch)
    for n_range in (range(0, 3), range(3, -1, -1)):
        with pytest.raises(ValueError, match="agent count must be >= 1"):
            rangeopt.scaling_bounds(CFG, n_range)
    assert calls == []
