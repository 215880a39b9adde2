import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mobilitylab import params


def test_titan_preset_values():
    env = params.titan_defaults()
    assert env.gravity == 1.352
    assert env.air_density == 5.4
    assert env.ambient_temperature == -179.0


def test_earth_preset_values():
    env = params.earth_defaults()
    assert env.gravity == 9.81
    assert env.air_density == 1.225
    assert env.ambient_temperature == 15.0


def test_default_scenario_is_titan_two_agents():
    cfg = params.ScenarioConfig()
    assert cfg.environment == params.titan_defaults()
    assert cfg.num_agents == 2
    assert cfg.terrain.rolling_resistance_crr == 0.01
    assert cfg.terrain.slope_theta == 0.0


def test_derived_totals():
    cfg = params.ScenarioConfig()
    assert cfg.total_mass == pytest.approx(1.6)
    assert cfg.total_energy == pytest.approx(2 * 870e3)


def test_rotor_disk_area():
    veh = params.VehicleParams()
    assert veh.rotor_disk_area == pytest.approx(math.pi * 0.0762 ** 2)


def test_validate_default_is_clean():
    # both presets and every default construct without a violation
    for env in (params.titan_defaults(), params.earth_defaults()):
        assert params.ScenarioConfig(environment=env).environment == env


@pytest.mark.parametrize("key,value", [
    ("cobot_mass", -1.0),
    ("shell_radius_l", 0.0),
    ("eta_motor", 1.5),
    ("battery_energy", -5.0),
])
def test_validate_names_offending_field(key, value):
    with pytest.raises(params.ValidationError) as exc:
        params.config_from_mapping({key: value})
    assert key in str(exc.value)


def test_validate_slope_bound():
    for theta in (math.pi / 2, -math.pi / 2):
        with pytest.raises(params.ValidationError, match="slope_theta"):
            params.TerrainParams(slope_theta=theta)
    below = math.nextafter(math.pi / 2, 0.0)
    assert params.TerrainParams(slope_theta=-below).slope_theta == -below


#: out-of-domain values of the fields whose domain is not "> 0"
_OUT_OF_DOMAIN = {"ambient_temperature": [-273.15, -500.0],
                  "eta_propeller": [0.0, -0.1, 1.1],
                  "eta_motor": [0.0, -0.1, 1.1],
                  "eta_controller": [0.0, -0.1, 1.1],
                  "rolling_resistance_crr": [-0.1],
                  "slope_theta": [math.pi / 2, -math.radians(95.0)],
                  "num_agents": [0.0, -1.0],
                  # in domain, but pi r^2 and the roll inertia underflow
                  "rotor_disk_radius": [0.0, -1.0, 1e-200],
                  "shell_radius_l": [0.0, -1.0, 1e-200],
                  # in domain, but the total over the agents overflows
                  "cobot_mass": [0.0, -1.0, 1e308],
                  "battery_energy": [0.0, -1.0, 1e308]}


def _defaults():
    """(section, field name, default value) of every config field; the
    section is None for num_agents."""
    config = params.ScenarioConfig()
    for section in ("environment", "vehicle", "terrain"):
        for name, value in vars(getattr(config, section)).items():
            yield section, name, value
    yield None, "num_agents", config.num_agents


def _builds(section, name, value):
    """Two ways to a default config whose field ``name`` is ``value``: the
    constructors, and ``dataclasses.replace``."""
    config = params.ScenarioConfig()
    if section is None:
        return (lambda: params.ScenarioConfig(num_agents=value),
                lambda: replace(config, num_agents=value))
    part = getattr(config, section)
    return (lambda: params.ScenarioConfig(**{section: type(part)(
                **{**vars(part), name: value})}),
            lambda: replace(config, **{section: replace(part, **{
                name: value})}))


@pytest.mark.parametrize("section, name, default, bad", [
    (section, name, default, bad) for section, name, default in _defaults()
    for bad in [math.nan, math.inf, -math.inf,
                *_OUT_OF_DOMAIN.get(name, [0.0, -1.0])]])
def test_bad_column_element_names_the_field(section, name, default, bad):
    # one bad element of an array column fails the whole config, scalar
    # fields and array fields checked by the same rule
    for build in _builds(section, name, np.array([[default], [bad]])):
        with pytest.raises(params.ValidationError, match=name):
            build()
    for build in _builds(section, name, bad):
        with pytest.raises(params.ValidationError, match=name):
            build()


@pytest.mark.parametrize("section, name, default", list(_defaults()))
def test_valid_column_constructs(section, name, default):
    column = np.array([[default], [default / 2]])
    for build in _builds(section, name, column):
        config = build()
        part = config if section is None else getattr(config, section)
        assert getattr(part, name) is column


def test_load_config_kv_text():
    cfg = params.load_config(
        "cobot_mass = 1.0\nrolling_resistance_crr = 0.05  # loose soil\n"
        "num_agents = 3\n")
    assert cfg.vehicle.cobot_mass == 1.0
    assert cfg.terrain.rolling_resistance_crr == 0.05
    assert cfg.num_agents == 3
    # unspecified fields keep defaults
    assert cfg.environment.gravity == 1.352


def test_load_config_json():
    cfg = params.load_config('{"gravity": 9.81, "num_agents": 1}')
    assert cfg.environment.gravity == 9.81
    assert cfg.num_agents == 1


def test_load_config_unknown_key():
    with pytest.raises(params.ValidationError) as exc:
        params.load_config("warp_drive = 9\n")
    assert "warp_drive" in str(exc.value)


def test_load_config_syntax_error():
    with pytest.raises(params.ConfigError):
        params.load_config("this line has no equals sign")
    with pytest.raises(params.ConfigError):
        params.load_config("{not json")


def test_serialize_round_trip():
    cfg = params.load_config("cobot_mass = 0.9\nslope_theta = 0.01\n")
    again = params.load_config(params.serialize(cfg))
    assert again == cfg


@given(mass=st.floats(0.1, 10.0), crr=st.floats(0.0, 0.5),
       n=st.integers(1, 16))
def test_round_trip_property(mass, crr, n):
    cfg = params.config_from_mapping({"cobot_mass": mass,
                                      "rolling_resistance_crr": crr,
                                      "num_agents": n})
    assert params.load_config(params.serialize(cfg)) == cfg


@given(x=st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: not x.is_integer()))
def test_num_agents_rejects_non_integral_float(x):
    with pytest.raises(params.ValidationError, match="num_agents"):
        params.config_from_mapping({"num_agents": x})


@pytest.mark.parametrize("doc", ['{"num_agents": 2.7}',
                                 '{"num_agents": true}',
                                 '{"num_agents": "2.5"}',
                                 "num_agents = 2.7\n"])
def test_num_agents_not_truncated(doc):
    with pytest.raises(params.ValidationError, match="num_agents"):
        params.load_config(doc)


@pytest.mark.parametrize("doc", ['{"num_agents": 3}', '{"num_agents": "3"}',
                                 "num_agents = 3\n"])
def test_num_agents_whole_counts_accepted(doc):
    assert params.load_config(doc).num_agents == 3
