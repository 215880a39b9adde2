import math

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
    assert params.validate(params.ScenarioConfig()) == []


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
    cfg = params.ScenarioConfig(terrain=params.TerrainParams(
        slope_theta=math.pi / 2))
    report = params.validate(cfg)
    assert any("slope_theta" in line for line in report)


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
