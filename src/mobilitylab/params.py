"""The scenario config (environment, vehicle and terrain fields in one flat
frozen dataclass), the Earth preset, and config parsing.

All quantities are SI.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from types import MappingProxyType


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


def _real(value) -> bool:
    """An int or float, Python's or numpy's, scalar or array; not a bool."""
    kind = getattr(getattr(value, "dtype", None), "kind", None)  # numpy's
    return (kind in ("i", "u", "f") if kind is not None
            else type(value) in (int, float))


#: (test, rule) of each field whose domain is not "> 0", by field name
_DOMAINS = {
    "ambient_temperature": (lambda t: t > -273.15, "must be above absolute "
                            "zero, -273.15 degC"),
    **dict.fromkeys(("eta_propeller", "eta_motor", "eta_controller"), (
        lambda eta: (0.0 < eta) & (eta <= 1.0), "must be in (0, 1]")),
    "rolling_resistance_crr": (lambda crr: crr >= 0, "must be >= 0"),
    "slope_theta": (lambda theta: abs(theta) < math.pi / 2,
                    "must satisfy |theta| < pi/2"),
    "num_agents": (lambda n: (n >= 1) & (n % 1 == 0),
                   "must be a whole number >= 1"),
}
_POSITIVE = (lambda x: x > 0, "must be > 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario, valid by construction: each field, scalar or array, is
    an int or float (never a bool or a str), finite (an int within float
    range) and in its domain element by element (``num_agents`` a whole
    number >= 1), and the rules across fields hold, whether it is built
    here, by ``dataclasses.replace`` or from a config document. The
    defaults are two Cobots on flat ground at Titan's surface.

    ``body_height_h_rolling`` is the rotor-to-opposite-rotor height of the
    docked two-agent cylinder; ``body_height_h_flying`` the rotor-to-base
    height of one agent. ``thrust_constant_k_t`` is the paper's map from
    squared rotor speed to thrust (f = k_t * n^2); it is validated, so
    config files may set it, but no analysis reads it.
    """

    # environment: gravity, atmosphere and ambient temperature of the body
    gravity: float = 1.352              # m/s^2
    air_density: float = 5.4            # kg/m^3
    ambient_temperature: float = -179.0  # degC
    # vehicle: single-agent (Cobot) mass, geometry, rotors and battery
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
    # terrain
    rolling_resistance_crr: float = 0.01
    slope_theta: float = 0.0  # rad, positive uphill
    num_agents: int = 2

    def __post_init__(self):
        """Check each field against its domain, then, once every field is
        valid, the rules across them: finite totals over the agents, and no
        underflow of the products the models divide by."""
        report = []
        for name, value in vars(self).items():
            test, rule = _DOMAINS.get(name, _POSITIVE)
            if not _real(value):
                report.append(f"{name} must be a real number (got {value!r})")
            # a Python int compares exactly: one past float range is < inf
            elif not (abs(value) <= sys.float_info.max if type(value) is int
                      else _holds(abs(value) < math.inf)):
                report.append(f"{name} must be finite (got {value!r})")
            elif not _holds(test(value)):
                report.append(f"{name} {rule} (got {value!r})")
        if report:
            raise ValidationError("; ".join(report))
        n = self.num_agents
        for name in ("cobot_mass", "battery_energy"):
            value = getattr(self, name)
            # for a whole count n, n * value is finite iff (n 2^-1024) value
            # < 1, a product that cannot overflow (and warn, for an array)
            if not _holds(n * 2.0 ** -1024 * value < 1.0):
                report.append(f"num_agents * {name} must be finite "
                              f"(got {n!r} * {value!r})")
        if not report:
            # tiny in-domain fields underflow these products (* 1.0 first:
            # x ** 2 overflows a huge float, int * int may wrap or overflow)
            disk, shell = self.rotor_disk_radius, self.shell_radius_l
            for name, value in (
                    ("air_density * rotor_disk_area (pi rotor_disk_radius^2)",
                     self.air_density * (math.pi * (disk * 1.0 * disk))),
                    ("roll inertia num_agents * cobot_mass * shell_radius_l^2",
                     n * 1.0 * self.cobot_mass * (shell * 1.0 * shell))):
                if not _holds(value > 0):
                    report.append(f"{name} must be > 0 (got {value!r})")
        if report:
            raise ValidationError("; ".join(report))

    @property
    def rotor_disk_area(self) -> float:
        return math.pi * self.rotor_disk_radius ** 2

    @property
    def total_mass(self) -> float:
        return self.num_agents * 1.0 * self.cobot_mass  # int * int wraps

    @property
    def total_energy(self) -> float:
        return self.num_agents * 1.0 * self.battery_energy


def titan_defaults() -> ScenarioConfig:
    """The default scenario, at Titan's surface."""
    return ScenarioConfig()


#: the Earth preset: standard sea-level fields over the Titan defaults, for
#: ``replace(config, **EARTH)`` or under a document's keys (``--env earth``)
EARTH = MappingProxyType({"gravity": 9.81, "air_density": 1.225,
                          "ambient_temperature": 15.0})

_FIELDS = frozenset(f.name for f in fields(ScenarioConfig))


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


def config_from_mapping(values: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a flat key/value mapping; a
    text value is read with ``float``, any other goes to the config as is."""
    kwargs = {}
    for key, value in values.items():
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise ValidationError(f"{key}: cannot parse value {value!r}")
        kwargs[key] = value
    unknown = kwargs.keys() - _FIELDS
    if unknown:  # quoted, so an empty key is named too
        raise ValidationError("unknown configuration keys: "
                              + ", ".join(map(repr, sorted(unknown))))
    return ScenarioConfig(**kwargs)


def parse_document(text: str) -> dict:
    """Flat key/value mapping of a config document (key = value lines, or a
    JSON object), without defaults or validation."""
    if not text.lstrip().startswith("{"):
        return _parse_kv_text(text)
    import json  # only a JSON document pays for the import
    try:  # a document that opens with { and parses is an object
        return json.loads(text)
    except ValueError as exc:  # also an int past the digit limit
        raise ConfigError(f"invalid JSON config: {exc}") from exc


def load_config(text: str) -> ScenarioConfig:
    """Parse a config document (key = value lines, or a JSON object).

    Unspecified fields take the Titan preset defaults. Unknown keys and
    invariant violations raise ValidationError naming the offending field.
    """
    return config_from_mapping(parse_document(text))


def serialize(config: ScenarioConfig) -> str:
    """Render a config as a flat key=value document; load_config inverse."""
    return "".join(f"{name} = {value}\n"
                   for name, value in vars(config).items())
