"""Physical, vehicle and terrain parameters, presets, and config parsing.

All quantities are SI. Parameter containers are frozen dataclasses and safe
to share between concurrent workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict


class ConfigError(ValueError):
    """Malformed configuration document (syntax, not semantics)."""


class ValidationError(ValueError):
    """A parameter invariant is violated. Message names the offending field."""


class AnalysisError(RuntimeError):
    """A valid scenario whose analysis has no result: a solve did not
    converge, or no point of a sweep is feasible."""


#: maximum allowed integration step, s
DT_MAX = 0.01


@dataclass(frozen=True)
class EnvironmentParams:
    """Gravity, atmosphere and ambient temperature of a celestial body."""

    gravity: float          # m/s^2
    air_density: float      # kg/m^3
    ambient_temperature: float  # degC


@dataclass(frozen=True)
class VehicleParams:
    """Single-agent (Cobot) mass, geometry, rotor and battery properties.

    ``body_height_h_rolling`` is the rotor-to-opposite-rotor height of the
    docked two-agent cylinder; ``body_height_h_flying`` the rotor-to-base
    height of one agent. ``thrust_constant_k_t`` maps squared rotor speed to
    thrust (f = k_t * n^2); ``torque_constant_k_tau`` maps rotor thrust to
    aerodynamic torque (tau = k_tau * f).
    """

    cobot_mass: float = 0.8              # kg
    shell_radius_l: float = 0.2          # m (cylinder radius)
    shell_width_w: float = 0.4           # m (cylinder width)
    body_height_h_rolling: float = 0.16  # m
    body_height_h_flying: float = 0.08   # m
    drag_coefficient_cd: float = 2.1
    rotor_disk_radius: float = 0.0762    # m (6-inch propeller)
    rotor_arm_length_a: float = 0.14     # m (rotor to CoM)
    thrust_constant_k_t: float = 2.0e-6  # N s^2 (8 N at 2000 rad/s)
    torque_constant_k_tau: float = 0.016  # m
    eta_propeller: float = 0.6
    eta_motor: float = 0.85
    eta_controller: float = 0.95
    battery_energy: float = 870e3        # J per agent
    max_rotor_thrust: float = 8.0        # N per rotor (32 N over 4 rotors)

    @property
    def efficiency_chain(self) -> float:
        return self.eta_propeller * self.eta_motor * self.eta_controller

    @property
    def rotor_disk_area(self) -> float:
        return math.pi * self.rotor_disk_radius ** 2


@dataclass(frozen=True)
class TerrainParams:
    rolling_resistance_crr: float = 0.01
    slope_theta: float = 0.0  # rad, positive uphill


@dataclass(frozen=True)
class ScenarioConfig:
    environment: EnvironmentParams = field(
        default_factory=lambda: titan_defaults())
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    terrain: TerrainParams = field(default_factory=TerrainParams)
    num_agents: int = 2

    @property
    def total_mass(self) -> float:
        return self.num_agents * self.vehicle.cobot_mass

    @property
    def total_energy(self) -> float:
        return self.num_agents * self.vehicle.battery_energy


def titan_defaults() -> EnvironmentParams:
    """Titan surface environment."""
    return EnvironmentParams(gravity=1.352, air_density=5.4,
                             ambient_temperature=-179.0)


def earth_defaults() -> EnvironmentParams:
    """Standard sea-level Earth environment (comparison baseline)."""
    return EnvironmentParams(gravity=9.81, air_density=1.225,
                             ambient_temperature=15.0)


# flat key -> (section, field) mapping used by the config document format
_ENV_FIELDS = {f.name: f for f in fields(EnvironmentParams)}
_VEH_FIELDS = {f.name: f for f in fields(VehicleParams)}
_TER_FIELDS = {f.name: f for f in fields(TerrainParams)}


def _positive(report, name, value):
    if not value > 0:
        report.append(f"{name} must be > 0 (got {value!r})")


def validate(config: ScenarioConfig) -> list[str]:
    """Return a list of invariant violations; empty iff the config is valid."""
    env, veh, ter = config.environment, config.vehicle, config.terrain
    report = [f"{f.name} must be finite (got {getattr(s, f.name)!r})"
              for s in (env, veh, ter) for f in fields(s)
              if not math.isfinite(getattr(s, f.name))]
    if report:
        return report
    _positive(report, "gravity", env.gravity)
    _positive(report, "air_density", env.air_density)
    for name in ("cobot_mass", "shell_radius_l", "shell_width_w",
                 "body_height_h_rolling", "body_height_h_flying",
                 "drag_coefficient_cd", "rotor_disk_radius",
                 "rotor_arm_length_a", "thrust_constant_k_t",
                 "torque_constant_k_tau", "battery_energy",
                 "max_rotor_thrust"):
        _positive(report, name, getattr(veh, name))
    try:
        n = float(config.num_agents)
    except OverflowError:  # an agent count beyond float range
        n = math.inf
    for name in ("cobot_mass", "battery_energy"):
        value = getattr(veh, name)
        if not abs(n * value) < math.inf:
            report.append(f"num_agents * {name} must be finite "
                          f"(got {n:g} * {value!r})")
    for name in ("eta_propeller", "eta_motor", "eta_controller"):
        eta = getattr(veh, name)
        if not (0.0 < eta <= 1.0):
            report.append(f"{name} must be in (0, 1] (got {eta!r})")
    if ter.rolling_resistance_crr < 0:
        report.append("rolling_resistance_crr must be >= 0 "
                      f"(got {ter.rolling_resistance_crr!r})")
    if not abs(ter.slope_theta) < math.pi / 2:
        report.append("slope_theta must satisfy |theta| < pi/2 "
                      f"(got {ter.slope_theta!r})")
    if config.num_agents < 1:
        report.append(f"num_agents must be >= 1 (got {config.num_agents!r})")
    return report


def _parse_kv_text(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _coerce(key: str, value):
    if key != "num_agents":
        return float(value)
    # bool is an int subclass and int() truncates 2.7: take whole counts only
    if isinstance(value, bool):
        raise ValueError(f"not an agent count: {value!r}")
    if isinstance(value, int):
        return value
    n = float(value)
    if not n.is_integer():
        raise ValueError(f"not a whole number: {value!r}")
    return int(n)


def config_from_mapping(values: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a flat key/value mapping."""
    env_kw, veh_kw, ter_kw, top_kw = {}, {}, {}, {}
    unknown = []
    for key, value in values.items():
        try:
            coerced = _coerce(key, value)
        except (TypeError, ValueError):
            raise ValidationError(f"{key}: cannot parse value {value!r}")
        if key in _ENV_FIELDS:
            env_kw[key] = coerced
        elif key in _VEH_FIELDS:
            veh_kw[key] = coerced
        elif key in _TER_FIELDS:
            ter_kw[key] = coerced
        elif key == "num_agents":
            top_kw[key] = coerced
        else:
            unknown.append(key)
    if unknown:
        raise ValidationError("unknown configuration keys: "
                              + ", ".join(sorted(unknown)))
    titan = titan_defaults()
    env = EnvironmentParams(**{**asdict(titan), **env_kw})
    config = ScenarioConfig(environment=env,
                            vehicle=VehicleParams(**veh_kw),
                            terrain=TerrainParams(**ter_kw),
                            **top_kw)
    report = validate(config)
    if report:
        raise ValidationError("; ".join(report))
    return config


def parse_document(text: str) -> dict:
    """Flat key/value mapping of a config document (key = value lines, or a
    JSON object), without defaults or validation."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("JSON config must be an object")
    else:
        values = _parse_kv_text(text)
    return values


def load_config(text: str) -> ScenarioConfig:
    """Parse a config document (key = value lines, or a JSON object).

    Unspecified fields take the Titan preset defaults. Unknown keys and
    invariant violations raise ValidationError naming the offending field.
    """
    return config_from_mapping(parse_document(text))


def serialize(config: ScenarioConfig) -> str:
    """Render a config as a flat key=value document; load_config inverse."""
    lines = []
    for section in (config.environment, config.vehicle, config.terrain):
        for f in fields(section):
            lines.append(f"{f.name} = {getattr(section, f.name)!r}")
    lines.append(f"num_agents = {config.num_agents}")
    return "\n".join(lines) + "\n"
