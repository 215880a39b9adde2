"""Acceptance suite: twelve numbered end-to-end criteria, one test each.

Each test prints a single PASS/FAIL line with the measured values before
asserting, so the verdicts survive in captured output. Criteria 1 and 2
compare against published headline figures that this model does not
reproduce (see the analysis notes shipped with the repository); they are
implemented faithfully at the stated tolerances and are expected to fail.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mobilitylab import (aeropower, cli, control, dynamics, rangeopt,
                         steadystate, thermal)
from mobilitylab.params import EARTH, ScenarioConfig

CFG = ScenarioConfig()  # Titan, 2 agents, C_rr = 0.01, theta = 0


def _verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def headline_curves():
    t0 = time.perf_counter()
    roll = rangeopt.range_sweep(CFG, "rolling")
    fly = rangeopt.range_sweep(CFG, "flying")
    return roll, fly, time.perf_counter() - t0


def test_criterion_01_headline_range(headline_curves):
    roll, fly, elapsed = headline_curves
    ok = (elapsed < 10.0
          and 0.10 <= roll.optimum_v <= 0.20
          and 225.0 <= roll.optimum_range_km <= 310.0
          and 1.3 <= fly.optimum_v <= 2.1
          and 110.0 <= fly.optimum_range_km <= 165.0)
    assert _verdict(1, ok,
                    f"rolling v*={roll.optimum_v:.3f} m/s (want 0.10-0.20), "
                    f"range={roll.optimum_range_km:.0f} km (want 225-310); "
                    f"flying v*={fly.optimum_v:.3f} m/s (want 1.3-2.1), "
                    f"range={fly.optimum_range_km:.0f} km (want 110-165); "
                    f"{elapsed:.2f} s")


def test_criterion_02_power_levels(headline_curves):
    roll, fly, _ = headline_curves
    n = CFG.num_agents
    p_roll = roll.power[int(np.nanargmax(roll.range_km))] / n
    p_fly = fly.power[int(np.nanargmax(fly.range_km))] / n
    ok = 0.5 <= p_roll <= 2.5 and 6.0 <= p_fly <= 15.0
    assert _verdict(2, ok,
                    f"rolling {p_roll:.3f} W/agent (want 0.5-2.5), "
                    f"flying {p_fly:.3f} W/agent (want 6-15)")


def test_criterion_03_range_doubling(headline_curves):
    roll, fly, _ = headline_curves
    ratio = roll.optimum_range_km / fly.optimum_range_km
    ok = ratio >= 1.8
    assert _verdict(3, ok, f"rolling/flying range ratio {ratio:.2f} "
                           f"(want >= 1.8)")


def test_criterion_04_tradeoff_map():
    t0 = time.perf_counter()
    grid = rangeopt.tradeoff_grid(CFG, resolution=20)
    elapsed = time.perf_counter() - t0
    j0 = int(np.argmin(np.abs(grid.theta_deg)))
    best = grid.delta_range_km[0, j0]
    worst = grid.delta_range_km[-1, -1]
    fly = grid.flying_range_km
    spread = (np.nanmax(fly) - np.nanmin(fly)) / np.nanmean(fly)
    ok = best > 0 and worst < 0 and spread < 0.15 and elapsed < 60.0
    assert _verdict(4, ok,
                    f"delta(0.01, 0 deg)={best:.0f} km, "
                    f"delta(0.2, 2 deg)={worst:.1f} km, flying spread "
                    f"{100 * spread:.1f}% (<15%), {elapsed:.1f} s (<60)")


def test_criterion_05_scaling_ordering():
    curve = rangeopt.scaling_bounds(CFG)
    ok = (bool(np.all(curve.ratio_lower[1:] > 1.0))
          and curve.ratio_upper[1] > curve.ratio_upper[0]
          and curve.ratio_lower[1] > curve.ratio_lower[0]
          and bool(np.all(curve.ratio_upper >= curve.ratio_lower)))
    assert _verdict(5, ok,
                    f"lower(2..12) min={curve.ratio_lower[1:].min():.2f} "
                    f"(>1); 1->2 improvement "
                    f"upper {curve.ratio_upper[0]:.2f}->"
                    f"{curve.ratio_upper[1]:.2f}, "
                    f"lower {curve.ratio_lower[0]:.2f}->"
                    f"{curve.ratio_lower[1]:.2f}; ordering holds")


def test_criterion_06_earth_titan_contrast(headline_curves):
    _, fly, _ = headline_curves
    p_titan = fly.power[int(np.nanargmax(fly.range_km))] / CFG.num_agents
    p_earth = steadystate.flying_state(replace(CFG, **EARTH, num_agents=1),
                                       0.0).power
    ok = p_titan < 15.0 and p_earth > 60.0
    assert _verdict(6, ok,
                    f"Titan flying optimum {p_titan:.2f} W/agent (<15), "
                    f"Earth hover {p_earth:.1f} W/agent (>60)")


def test_criterion_07_allocation_oracle():
    mixer = control.mixer_matrix(0.14, 0.016)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        torque = rng.uniform(-1.0, 1.0, 3)
        forces = control.allocate(torque, mixer)
        wrench = mixer.matrix_m @ forces
        target = np.concatenate(([0.0], torque))
        worst = max(worst, np.max(np.abs(wrench - target))
                    / max(np.max(np.abs(target)), 1e-30))
    det = abs(np.linalg.det(mixer.matrix_m))
    det_expect = 16 * (0.14 / math.sqrt(2)) ** 2 * 0.016
    det_err = abs(det - det_expect) / det_expect
    ok = worst < 1e-12 and det_err < 1e-10
    assert _verdict(7, ok, f"worst round-trip residual {worst:.2e} (<1e-12), "
                           f"|det M| rel err {det_err:.2e} (<1e-10)")


def test_criterion_08_induced_velocity_oracle():
    area = CFG.rotor_disk_area
    rho2a = 2 * CFG.air_density * area
    # hover closed form over eight decades of thrust
    hover_err = 0.0
    for f in np.geomspace(1e-6, 100.0, 25):
        nu = aeropower.momentum_power(f, rho2a, 0.0, 0.0, 0.0, 1.0)[0]
        hover_err = max(hover_err, abs(nu - math.sqrt(f / rho2a))
                        / math.sqrt(f / rho2a))
    # brute-force scan at 20 random operating points
    rng = np.random.default_rng(8)
    scan_ok = True
    worst_res = 0.0
    for _ in range(20):
        f = rng.uniform(0.01, 10.0)
        v = rng.uniform(0.0, 5.0)
        alpha = rng.uniform(0.0, 1.2)
        nu = aeropower.momentum_power(f, rho2a, v, v * math.cos(alpha),
                                      v * math.sin(alpha), 1.0)[0]
        rhs = f / rho2a
        res = abs(nu * math.hypot(v * math.cos(alpha),
                                  v * math.sin(alpha) + nu) - rhs) / rhs
        worst_res = max(worst_res, res)
        grid = np.linspace(0.0, 2 * math.sqrt(rhs) + v, 10 ** 6)
        scan_res = np.abs(grid * np.hypot(v * math.cos(alpha),
                                          v * math.sin(alpha) + grid) - rhs)
        nu_brute = grid[int(np.argmin(scan_res))]
        if abs(nu - nu_brute) > grid[1] - grid[0]:
            scan_ok = False
    ok = hover_err < 1e-9 and worst_res < 1e-8 and scan_ok
    assert _verdict(8, ok,
                    f"hover closed-form rel err {hover_err:.2e} (<1e-9); "
                    f"implicit-eq residual {worst_res:.2e} (<1e-8); "
                    f"brute-force scan agreement: {scan_ok}")


def test_criterion_09_cross_module_consistency():
    omega_des = 0.6
    v = omega_des * CFG.shell_radius_l
    traj = dynamics.simulate_closed_loop(CFG, omega_des, duration=60.0,
                                         dt=0.01)
    tail = traj.power[len(traj.power) // 2:]  # steady tail, transient gone
    mean_power = float(np.mean(tail))
    p_ss = float(steadystate.rolling_state(CFG, v).power)
    power_ok = abs(mean_power - p_ss) / p_ss < 0.10

    # trim residuals on the returned states, drag and thrust per agent
    speeds = np.array([0.0, 0.12, 0.5, 1.0])
    roll = steadystate.rolling_state(CFG, speeds)
    resist = steadystate.rolling_resistive_force(CFG, speeds)
    fly = steadystate.flying_state(CFG, speeds)
    m = CFG.cobot_mass
    worst = float(max(
        np.max(np.abs(roll.torque - resist * CFG.shell_radius_l)),
        np.max(np.abs(fly.thrust * np.sin(fly.tilt) - fly.drag)),
        np.max(np.abs(fly.thrust * np.cos(fly.tilt)
                      - m * CFG.gravity))))
    residual_ok = worst < 1e-9
    ok = power_ok and residual_ok
    assert _verdict(9, ok,
                    f"closed-loop mean power {mean_power:.4f} W vs "
                    f"steady-state {p_ss:.4f} W "
                    f"({100 * abs(mean_power - p_ss) / p_ss:.1f}%, <10%); "
                    f"worst trim residual {worst:.2e} N (<1e-9)")


def test_criterion_10_thermal_pin():
    # ambient -179 degC: dT = 179 K
    q = thermal.sizing_table(CFG, [0.02])[0][1]  # r1=0.1, r2=0.12
    pin_ok = abs(q - 5.40) / 5.40 < 0.005
    worst = 0.0
    for budget in np.linspace(1.2, 50.0, 25):
        t = thermal.thickness_for_budget(budget, CFG)
        back = thermal.sizing_table(CFG, [t])[0][1]
        target = budget * thermal.HEATER_EFFICIENCY
        worst = max(worst, abs(back - target) / target)
    ok = pin_ok and worst < 1e-9
    assert _verdict(10, ok, f"conduction loss {q:.4f} W (5.40 +-0.5%); "
                            f"inversion round-trip rel err {worst:.2e} "
                            f"(<1e-9)")


def test_criterion_11_integrator_order():
    torque = 0.02
    t_end = 1.0

    def final_omega(dt):
        step = dynamics._roll_step(CFG, dt)
        phi, omega = 0.2, 0.5
        for _ in range(int(round(t_end / dt))):
            phi, omega = step(phi, omega, torque)
        return omega

    e1 = abs(final_omega(0.008) - final_omega(0.004))
    e2 = abs(final_omega(0.004) - final_omega(0.002))
    order = math.log2(e1 / e2)
    ok = order >= 3.5
    assert _verdict(11, ok, f"measured convergence exponent {order:.2f} "
                            f"(>= 3.5)")


def test_criterion_12_determinism(tmp_path):
    commands = [
        ["range-sweep", "--mode", "rolling"],
        ["range-sweep", "--mode", "flying"],
        ["power-curve", "--mode", "flying"],
        ["tradeoff-map", "--resolution", "5"],
        ["scaling", "--n-min", "1", "--n-max", "4"],
        ["simulate", "--omega-des", "0.5", "--duration", "2",
         "--dt", "0.01"],
        ["thermal"],
    ]
    repeat_ok = True
    for i, argv in enumerate(commands):
        a, b = tmp_path / f"{i}a.csv", tmp_path / f"{i}b.csv"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            repeat_ok = False
    batch_ok = True
    for mode, state in (("rolling", steadystate.rolling_state),
                        ("flying", steadystate.flying_state)):
        curve = rangeopt.range_sweep(CFG, mode)
        pointwise = [state(CFG, float(v)).power for v in curve.velocity]
        batch_ok &= np.array_equal(curve.power, pointwise)
    ok = repeat_ok and batch_ok
    assert _verdict(12, ok,
                    f"byte-identical reruns over {len(commands)} "
                    f"subcommands: {repeat_ok}; batch sweep power equals "
                    f"per-point equilibria bitwise: {batch_ok}")
