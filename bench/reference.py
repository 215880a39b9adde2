"""Independent reference model that every benchmark output is checked against.

The model is written from the equations in the package docstrings and the
README, not from the package code: it shares no function with ``mobilitylab``
and solves the rotor inflow differently (closed form for edgewise rotors,
vectorised bisection to machine precision otherwise). Inputs are flat
parameter mappings with the same keys as the package's config documents.

Comparison tolerances are stated here once and used by every workload.
"""

from __future__ import annotations

import math

import numpy as np

#: relative and absolute tolerance of every compared output value. The
#: absolute part is needed because ``delta_km`` crosses zero.
RTOL = 1e-6
ATOL = 1e-6
#: refined optima sit on a flat maximum: the velocity is only determined to
#: about the square root of the solver tolerance, so it gets a looser bound.
OPT_V_RTOL = 1e-3
OPT_V_ATOL = 1e-4

TITAN_ENV = {"gravity": 1.352, "air_density": 5.4,
             "ambient_temperature": -179.0}
EARTH_ENV = {"gravity": 9.81, "air_density": 1.225,
             "ambient_temperature": 15.0}
VEHICLE = {
    "cobot_mass": 0.8, "shell_radius_l": 0.2, "shell_width_w": 0.4,
    "body_height_h_rolling": 0.16, "body_height_h_flying": 0.08,
    "drag_coefficient_cd": 2.1, "rotor_disk_radius": 0.0762,
    "rotor_arm_length_a": 0.14, "thrust_constant_k_t": 2.0e-6,
    "torque_constant_k_tau": 0.016, "eta_propeller": 0.6, "eta_motor": 0.85,
    "eta_controller": 0.95, "battery_energy": 870e3, "max_rotor_thrust": 8.0,
}
TERRAIN = {"rolling_resistance_crr": 0.01, "slope_theta": 0.0}
DEFAULTS = {**TITAN_ENV, **VEHICLE, **TERRAIN, "num_agents": 2}

ROLLING_V = np.linspace(0.01, 2.0, 200)
FLYING_V = np.linspace(0.05, 5.0, 200)

#: PI gains and integrator clamp of the closed rolling loop (all axes equal)
KP, KI, I_LIMIT = 0.4, 0.2, 0.5
#: rolling resistance is gated off below this roll rate, rad/s
OMEGA_STATIC = 1e-6

THERMAL = {"k": 0.004, "r1": 0.1, "t1": 0.0, "eff": 0.95, "rho": 1.9}
THERMAL_GRID = np.linspace(0.005, 0.05, 46)

PLATONIC = ((4, math.sqrt(3.0 / 8.0)), (6, math.sqrt(3.0) / 2.0),
            (8, math.sqrt(2.0) / 2.0),
            (12, (math.sqrt(3.0) / 4.0) * (1.0 + math.sqrt(5.0))))


def scenario(preset: str = "titan", **overrides) -> dict:
    """Flat parameter mapping: preset environment < overrides."""
    env = EARTH_ENV if preset == "earth" else TITAN_ENV
    return {**DEFAULTS, **env, **overrides}


def _eta(p):
    return p["eta_propeller"] * p["eta_motor"] * p["eta_controller"]


def _disk(p):
    return math.pi * p["rotor_disk_radius"] ** 2


def induced_velocity(thrust, rhs_scale, v, alpha):
    """Momentum-theory inflow nu >= 0 with nu*|(v cos a, v sin a + nu)| = rhs.

    ``rhs_scale`` is 2 rho A. Closed form where alpha == 0 (the quartic is
    a quadratic in nu^2), bisection to machine precision elsewhere.
    """
    thrust, v, alpha = np.broadcast_arrays(np.asarray(thrust, float),
                                           np.asarray(v, float),
                                           np.asarray(alpha, float))
    rhs = thrust / rhs_scale
    vx, vz = v * np.cos(alpha), v * np.sin(alpha)
    # edgewise: nu^4 + vx^2 nu^2 - rhs^2 = 0, in cancellation-free form
    edgewise = np.sqrt(2.0 * rhs ** 2
                       / np.maximum(vx ** 2 + np.sqrt(vx ** 4 + 4.0 * rhs ** 2),
                                    np.finfo(float).tiny))
    nu = edgewise
    if np.any(vz != 0.0):
        lo = np.zeros_like(rhs)
        hi = np.sqrt(rhs) + np.maximum(0.0, -vz)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            above = mid * np.hypot(vx, vz + mid) > rhs
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        nu = np.where(vz == 0.0, edgewise, 0.5 * (lo + hi))
    return np.where(thrust > 0.0, nu, 0.0)


def rotor_power(p, thrust, v, tilt):
    """Electrical power of one rotor at thrust, freestream v, propulsive tilt."""
    nu = induced_velocity(thrust, 2.0 * p["air_density"] * _disk(p), v, tilt)
    return np.maximum(0.0, thrust * (nu + v * np.sin(tilt))) / _eta(p)


def rolling_power(p, v, crr=None, theta=None):
    """Total rolling power (W) at speed v; NaN where a rotor saturates."""
    crr = p["rolling_resistance_crr"] if crr is None else crr
    theta = p["slope_theta"] if theta is None else theta
    m = p["num_agents"] * p["cobot_mass"]
    g, l, w = p["gravity"], p["shell_radius_l"], p["shell_width_w"]
    area = (2.0 / math.pi) * (p["body_height_h_rolling"] + 2.0 * l) * w
    drag = 0.5 * p["drag_coefficient_cd"] * p["air_density"] * area * v * v
    resist = drag + m * g * np.sin(theta) + crr * m * g * np.cos(theta)
    # pure roll torque: four equal pair forces tau / (4 a / sqrt 2)
    force = np.abs(resist * l) / (4.0 * p["rotor_arm_length_a"] / math.sqrt(2))
    power = 4.0 * rotor_power(p, force, v, 0.0)
    return np.where(force > p["max_rotor_thrust"], np.nan, power)


def flying_power(p, v, theta=None):
    """Total flying power (W) of all agents at speed v; NaN if infeasible."""
    theta = p["slope_theta"] if theta is None else theta
    m, g, w = p["cobot_mass"], p["gravity"], p["shell_width_w"]
    along, normal = m * g * np.sin(theta), m * g * np.cos(theta)
    q = 0.5 * p["drag_coefficient_cd"] * p["air_density"] * v * v

    def drag_at(tilt):
        area = (p["body_height_h_flying"] * np.abs(np.cos(tilt))
                + 2.0 * p["shell_radius_l"] * np.abs(np.sin(tilt))) * w
        return q * area

    tilt = np.zeros(np.broadcast(v, theta).shape)
    for _ in range(400):
        tilt = np.arctan2(drag_at(tilt) + along, normal)
    force = np.hypot(drag_at(tilt) + along, normal) / 4.0
    power = p["num_agents"] * 4.0 * rotor_power(p, force, v, tilt)
    return np.where(force > p["max_rotor_thrust"], np.nan, power)


def _ranges(p, power, v, hotel_w):
    energy = p["num_agents"] * p["battery_energy"]
    total = power + hotel_w
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isfinite(total) & (total > 0),
                        v * energy / total * 1e-3, np.nan)


def _power(p, mode, v):
    return rolling_power(p, v) if mode == "rolling" else flying_power(p, v)


def range_sweep(p, mode, hotel_w=0.0, refine=False):
    """Power and range over the default velocity grid, with the optimum.

    Returns None when every point is infeasible. The refined optimum is the
    maximum of a dense grid on the bracket around the coarse optimum.
    """
    v = ROLLING_V if mode == "rolling" else FLYING_V
    raw = _power(p, mode, v)
    ranges = _ranges(p, raw, v, hotel_w)
    if not np.any(np.isfinite(ranges)):
        return None
    i = int(np.nanargmax(ranges))
    opt_v, opt_r = float(v[i]), float(ranges[i])
    if refine:
        dense = np.linspace(v[max(0, i - 1)], v[min(len(v) - 1, i + 1)], 4001)
        dense_r = _ranges(p, _power(p, mode, dense), dense, hotel_w)
        k = int(np.nanargmax(dense_r))
        opt_v, opt_r = float(dense[k]), float(dense_r[k])
    return {"velocity": v, "power": raw + hotel_w, "range_km": ranges,
            "optimum_v": opt_v, "optimum_range_km": opt_r}


def _optimum(ranges):
    finite = np.isfinite(ranges)
    best = np.max(np.where(finite, ranges, -np.inf), axis=-1)
    return np.where(finite.any(axis=-1), best, np.nan)


def tradeoff_grid(p, crr_range, theta_range_deg, resolution):
    """Rolling-minus-flying optimum range (km) over a (C_rr, slope) grid."""
    crr = np.linspace(crr_range[0], crr_range[1], resolution)
    theta_deg = np.linspace(theta_range_deg[0], theta_range_deg[1],
                            resolution)
    theta = np.radians(theta_deg)
    fly_r = _ranges(p, flying_power(p, FLYING_V[None, :], theta[:, None]),
                    FLYING_V, 0.0)
    fly = _optimum(fly_r)                                   # [j]
    roll_p = rolling_power(p, ROLLING_V[None, None, :], crr[:, None, None],
                           theta[None, :, None])
    roll = _optimum(_ranges(p, roll_p, ROLLING_V, 0.0))     # [i, j]
    fly_grid = np.broadcast_to(fly, roll.shape).copy()
    delta = np.where(np.isfinite(fly_grid), roll - fly_grid, np.nan)
    return {"crr": crr, "theta_deg": theta_deg, "delta_range_km": delta,
            "flying_range_km": fly_grid}


def _platonic_radius(n, edge):
    faces = [f for f, _ in PLATONIC]
    radii = [r * edge for _, r in PLATONIC]
    if n <= faces[0]:
        r = radii[0] + (radii[1] - radii[0]) / (faces[1] - faces[0]) * (
            n - faces[0])
    elif n >= faces[-1]:
        r = radii[-1]
    else:
        r = float(np.interp(n, faces, radii))
    return max(r, 0.5 * edge)


def _prism_radius(n, side):
    return side / 2.0 if n == 1 else side / (2.0 * math.sin(math.pi / n))


def scaling_bounds(p, n_values):
    """Rolling/flying optimum range ratios: n-gon prism and sphere bounds."""
    fly = range_sweep(p, "flying")["optimum_range_km"]
    v = ROLLING_V
    g, crr, theta = p["gravity"], p["rolling_resistance_crr"], p["slope_theta"]
    c = p["rotor_arm_length_a"] / math.sqrt(2.0)
    width = p["shell_width_w"]
    lower, upper = [], []
    for n in n_values:
        m = n * p["cobot_mass"]
        r_up, r_lo = _platonic_radius(n, width), _prism_radius(n, width)
        best = []
        for radius, area in ((r_lo, 2.0 * r_lo * width),
                             (r_up, math.pi * r_up ** 2)):
            drag = (0.5 * p["drag_coefficient_cd"] * p["air_density"] * area
                    * v * v)
            resist = (drag + m * g * math.sin(theta)
                      + crr * m * g * math.cos(theta))
            force = resist * radius / (2 * n * c)
            power = 2 * n * rotor_power(p, force, v, 0.0)
            power = np.where(force > p["max_rotor_thrust"], np.nan, power)
            best.append(float(np.nanmax(v * n * p["battery_energy"] / power
                                        * 1e-3)))
        lower.append(best[0] / fly)
        upper.append(best[1] / fly)
    return {"n": np.array(list(n_values), float), "ratio_lower": np.array(lower),
            "ratio_upper": np.array(upper)}


def simulate_rolling(p, setpoint, duration, dt, record_every=1):
    """Closed rolling loop: PI on roll rate, pair-force saturation, RK4.

    ``setpoint(t)`` returns the desired roll rate in rad/s. Returns the
    recorded rows (time, position, speed, omega, power, energy, saturated)
    and the final roll angle.
    """
    m = p["num_agents"] * p["cobot_mass"]
    g, l, w = p["gravity"], p["shell_radius_l"], p["shell_width_w"]
    theta, crr = p["slope_theta"], p["rolling_resistance_crr"]
    half_rho_cd = 0.5 * p["drag_coefficient_cd"] * p["air_density"]
    h = p["body_height_h_rolling"]
    lever = 4.0 * p["rotor_arm_length_a"] / math.sqrt(2.0)
    f_max = p["max_rotor_thrust"]
    inertia = 1.5 * m * l * l
    slope_torque = m * g * math.sin(theta) * l
    crr_torque = crr * m * g * math.cos(theta) * l
    rhs_scale = 2.0 * p["air_density"] * _disk(p)
    eta = _eta(p)

    def accel(phi, om, torque):
        v = om * l
        area = (h * abs(math.cos(phi)) + 2.0 * l * abs(math.sin(phi))) * w
        resist = slope_torque + half_rho_cd * area * v * abs(v) * l
        if abs(om) > OMEGA_STATIC:
            resist += math.copysign(crr_torque, om)
        return (torque - resist) / inertia

    def power(torque, v):
        force = abs(torque) / lever
        if force == 0.0:
            return 0.0
        rhs = force / rhs_scale
        nu = math.sqrt(2.0 * rhs * rhs
                       / (v * v + math.sqrt(v ** 4 + 4.0 * rhs * rhs)))
        return 4.0 * force * nu / eta

    s = phi = om = energy = t = integ = 0.0
    rows = [(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)]
    for i in range(int(round(duration / dt))):
        err = setpoint(t) - om
        integ = min(I_LIMIT, max(-I_LIMIT, integ + err * dt))
        torque = KP * err + KI * integ
        saturated = abs(torque) / lever > f_max
        if saturated:
            torque = math.copysign(lever * f_max, torque)
        p_now = power(torque, abs(om * l))
        k1 = accel(phi, om, torque)
        k2 = accel(phi + 0.5 * dt * om, om + 0.5 * dt * k1, torque)
        om2 = om + 0.5 * dt * k1
        k3 = accel(phi + 0.5 * dt * om2, om + 0.5 * dt * k2, torque)
        om3 = om + 0.5 * dt * k2
        k4 = accel(phi + dt * om3, om + dt * k3, torque)
        om4 = om + dt * k3
        phi_new = phi + dt / 6.0 * (om + 2 * om2 + 2 * om3 + om4)
        om = om + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        s += (phi_new - phi) * l
        phi = phi_new
        energy += p_now * dt
        t += dt
        if (i + 1) % record_every == 0:
            rows.append((t, s, om * l, om, p_now, energy, int(saturated)))
    return rows, phi


def thermal_rows(ambient_c, thicknesses):
    """Rows (thickness, conduction loss, heater power, aerogel mass)."""
    k, r1, dt = THERMAL["k"], THERMAL["r1"], THERMAL["t1"] - ambient_c
    rows = []
    for t in thicknesses:
        r2 = r1 + t
        loss = 4.0 * math.pi * k * r1 * r2 * dt / (r2 - r1)
        rows.append([t, loss, loss / THERMAL["eff"],
                     THERMAL["rho"] * 4.0 / 3.0 * math.pi * (r2 ** 3 - r1 ** 3)])
    return rows


def thermal_thickness(budget_w, ambient_c):
    """Insulation thickness whose conduction loss equals budget * eff."""
    k, r1, dt = THERMAL["k"], THERMAL["r1"], THERMAL["t1"] - ambient_c
    q = budget_w * THERMAL["eff"]
    return q * r1 / (q - 4.0 * math.pi * k * r1 * dt) - r1


def close(observed, expected, rtol=RTOL, atol=ATOL, path="value"):
    """Return None if ``observed`` matches ``expected`` within tolerance.

    Otherwise a one-line description of the first mismatch. Numbers and
    arrays compare as |o - e| <= atol + rtol |e| with NaN matching NaN;
    mappings compare key by key, other values exactly.
    """
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            return (f"{path}: {observed!r:.200} lacks or adds keys of "
                    f"{sorted(expected)}")
        for key in sorted(expected):
            tol = ((OPT_V_RTOL, OPT_V_ATOL) if "optimum_v" in key
                   else (rtol, atol))
            why = close(observed[key], expected[key], *tol,
                        path=f"{path}.{key}")
            if why:
                return why
        return None
    if isinstance(expected, (str, bool)) or expected is None:
        if observed == expected:
            return None
        return f"{path}: {observed!r} != {expected!r}"
    try:
        o = np.asarray(observed, float)
    except (TypeError, ValueError):
        return f"{path}: not numeric: {observed!r}"
    e = np.asarray(expected, float)
    if o.shape != e.shape:
        return f"{path}: shape {o.shape} != {e.shape}"
    nan_o, nan_e = np.isnan(o), np.isnan(e)
    if np.any(nan_o != nan_e):
        return (f"{path}: NaN pattern differs at "
                f"{int(np.sum(nan_o != nan_e))} entries")
    with np.errstate(invalid="ignore"):
        bad = ~nan_e & ~(np.abs(o - e) <= atol + rtol * np.abs(e))
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        return (f"{path}: {o.flat[k]!r} != {e.flat[k]!r} "
                f"(rtol {rtol:g}, atol {atol:g})")
    return None
