"""Physical, vehicle and terrain parameters, presets, and config parsing.

All quantities are SI. Parameter containers are frozen dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Malformed configuration document (syntax, not semantics)."""


class ValidationError(ValueError):
    """A parameter invariant is violated. Message names the offending field."""


class AnalysisError(RuntimeError):
    """A valid scenario whose analysis has no result: a solve did not
    converge, or no point of a sweep is feasible."""


#: maximum allowed integration step, s
DT_MAX = 0.01


def _holds(ok) -> bool:
    """A rule's verdict, on every element of an array mask (``all``), with
    no numpy import."""
    return ok.all() if hasattr(ok, "all") else bool(ok)


#: (test, rule) of each field whose domain is not "> 0", by field name
_DOMAINS = {
    "ambient_temperature": (lambda t: t > -273.15, "must be above absolute "
                            "zero, -273.15 degC"),
    **dict.fromkeys(("eta_propeller", "eta_motor", "eta_controller"), (
        lambda eta: (0.0 < eta) & (eta <= 1.0), "must be in (0, 1]")),
    "rolling_resistance_crr": (lambda crr: crr >= 0, "must be >= 0"),
    "slope_theta": (lambda theta: abs(theta) < math.pi / 2,
                    "must satisfy |theta| < pi/2"),
}
_POSITIVE = (lambda x: x > 0, "must be > 0")


class _Section:
    """A config section, valid by construction: each field, scalar or array,
    is finite and in its domain element by element."""

    def __post_init__(self):
        report = []
        for name, value in vars(self).items():
            test, rule = _DOMAINS.get(name, _POSITIVE)
            if not _holds(abs(value) < math.inf):
                report.append(f"{name} must be finite (got {value!r})")
            elif not _holds(test(value)):
                report.append(f"{name} {rule} (got {value!r})")
        if report:
            raise ValidationError("; ".join(report))


@dataclass(frozen=True)
class EnvironmentParams(_Section):
    """Gravity, atmosphere and ambient temperature of a celestial body; the
    defaults are Titan's surface."""

    gravity: float = 1.352              # m/s^2
    air_density: float = 5.4            # kg/m^3
    ambient_temperature: float = -179.0  # degC


@dataclass(frozen=True)
class VehicleParams(_Section):
    """Single-agent (Cobot) mass, geometry, rotor and battery properties.

    ``body_height_h_rolling`` is the rotor-to-opposite-rotor height of the
    docked two-agent cylinder; ``body_height_h_flying`` the rotor-to-base
    height of one agent. ``thrust_constant_k_t`` is the paper's map from
    squared rotor speed to thrust (f = k_t * n^2); it is validated, so
    config files may set it, but no analysis reads it.
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
    eta_propeller: float = 0.6
    eta_motor: float = 0.85
    eta_controller: float = 0.95
    battery_energy: float = 870e3        # J per agent
    max_rotor_thrust: float = 8.0        # N per rotor (32 N over 4 rotors)

    @property
    def rotor_disk_area(self) -> float:
        return math.pi * self.rotor_disk_radius ** 2


@dataclass(frozen=True)
class TerrainParams(_Section):
    rolling_resistance_crr: float = 0.01
    slope_theta: float = 0.0  # rad, positive uphill


@dataclass(frozen=True)
class ScenarioConfig:
    environment: EnvironmentParams = field(default_factory=EnvironmentParams)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    terrain: TerrainParams = field(default_factory=TerrainParams)
    num_agents: int = 2

    def __post_init__(self):
        """Check the rules across sections: num_agents >= 1, finite totals
        over the agents, and no underflow of the products the models
        divide by."""
        veh = self.vehicle
        try:
            n = self.num_agents * 1.0
        except OverflowError:  # an agent count beyond float range
            n = math.inf
        report = ([] if _holds(n >= 1) else
                  [f"num_agents must be >= 1 (got {self.num_agents!r})"])
        for name in ("cobot_mass", "battery_energy"):
            value = getattr(veh, name)
            # for a whole count n, n * value is finite iff (n 2^-1024) value
            # < 1, a product that cannot overflow (and warn, for an array)
            if not _holds(n * 2.0 ** -1024 * value < 1.0):
                report.append(f"num_agents * {name} must be finite "
                              f"(got {n!r} * {value!r})")
        if not report:
            # tiny in-domain fields underflow these products (x * x: x ** 2
            # raises OverflowError on huge ones)
            disk, shell = veh.rotor_disk_radius, veh.shell_radius_l
            for name, value in (
                    ("air_density * rotor_disk_area (pi rotor_disk_radius^2)",
                     self.environment.air_density * (math.pi * (disk * disk))),
                    ("roll inertia num_agents * cobot_mass * shell_radius_l^2",
                     n * veh.cobot_mass * (shell * shell))):
                if not _holds(value > 0):
                    report.append(f"{name} must be > 0 (got {value!r})")
        if report:
            raise ValidationError("; ".join(report))

    @property
    def total_mass(self) -> float:
        return self.num_agents * self.vehicle.cobot_mass

    @property
    def total_energy(self) -> float:
        return self.num_agents * self.vehicle.battery_energy


def titan_defaults() -> EnvironmentParams:
    """Titan surface environment."""
    return EnvironmentParams()


def earth_defaults() -> EnvironmentParams:
    """Standard sea-level Earth environment (comparison baseline)."""
    return EnvironmentParams(gravity=9.81, air_density=1.225,
                             ambient_temperature=15.0)


# flat key -> (section, field) mapping used by the config document format
_ENV_FIELDS = {f.name: f for f in fields(EnvironmentParams)}
_VEH_FIELDS = {f.name: f for f in fields(VehicleParams)}
_TER_FIELDS = {f.name: f for f in fields(TerrainParams)}


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
    # bool is an int subclass (float(True) is 1.0): no field takes one
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if key != "num_agents":
        return float(value)
    # int() truncates 2.7: take whole counts only
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
    return ScenarioConfig(environment=EnvironmentParams(**env_kw),
                          vehicle=VehicleParams(**veh_kw),
                          terrain=TerrainParams(**ter_kw), **top_kw)


def parse_document(text: str) -> dict:
    """Flat key/value mapping of a config document (key = value lines, or a
    JSON object), without defaults or validation."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        import json  # only a JSON document pays for the import
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
