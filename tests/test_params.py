import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mobilitylab import params


def test_titan_preset_values():
    env = params.titan_defaults()
    assert env.gravity == 1.352
    assert env.air_density == 5.4
    assert env.ambient_temperature == -179.0


def test_earth_preset_values():
    assert dict(params.EARTH) == {"gravity": 9.81, "air_density": 1.225,
                                  "ambient_temperature": 15.0}
    earth = replace(params.ScenarioConfig(), **params.EARTH)
    assert earth == params.ScenarioConfig(gravity=9.81, air_density=1.225,
                                          ambient_temperature=15.0)
    with pytest.raises(TypeError):  # the preset is read-only
        params.EARTH["gravity"] = 1.0


def test_default_scenario_is_titan_two_agents():
    cfg = params.ScenarioConfig()
    assert cfg == params.titan_defaults()
    assert cfg.num_agents == 2
    assert cfg.rolling_resistance_crr == 0.01
    assert cfg.slope_theta == 0.0


def test_derived_totals():
    cfg = params.ScenarioConfig()
    assert cfg.total_mass == pytest.approx(1.6)
    assert cfg.total_energy == pytest.approx(2 * 870e3)


@pytest.mark.parametrize("value", [10 ** 18, 10 ** 20])
def test_totals_of_an_int_count_column_are_floats(value):
    # an int64 count times an int wraps past 2**63 without a warning, and
    # cannot take an int past int64 range at all
    cfg = params.ScenarioConfig(num_agents=np.array([[10]]),
                                cobot_mass=value, battery_energy=value)
    assert cfg.total_mass.tolist() == [[10 * value * 1.0]]
    assert cfg.total_energy.tolist() == [[10 * value * 1.0]]


def test_rotor_disk_area():
    cfg = params.ScenarioConfig()
    assert cfg.rotor_disk_area == pytest.approx(math.pi * 0.0762 ** 2)


def test_validate_default_is_clean():
    # both presets and every default construct without a violation
    for preset in ({}, params.EARTH):
        config = replace(params.titan_defaults(), **preset)
        assert vars(config).items() >= preset.items()


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
            params.ScenarioConfig(slope_theta=theta)
    below = math.nextafter(math.pi / 2, 0.0)
    assert params.ScenarioConfig(slope_theta=-below).slope_theta == -below


#: out-of-domain values of the fields whose domain is not "> 0"
_OUT_OF_DOMAIN = {"ambient_temperature": [-273.15, -500.0],
                  "eta_propeller": [0.0, -0.1, 1.1],
                  "eta_motor": [0.0, -0.1, 1.1],
                  "eta_controller": [0.0, -0.1, 1.1],
                  "rolling_resistance_crr": [-0.1],
                  "slope_theta": [math.pi / 2, -math.radians(95.0)],
                  "num_agents": [0.0, -1.0, 2.5],
                  # in domain, but pi r^2 and the roll inertia underflow
                  "rotor_disk_radius": [0.0, -1.0, 1e-200],
                  "shell_radius_l": [0.0, -1.0, 1e-200],
                  # in domain, but the total over the agents overflows
                  "cobot_mass": [0.0, -1.0, 1e308],
                  "battery_energy": [0.0, -1.0, 1e308]}


#: each field's group, in ScenarioConfig's field order: the label of its
#: test cases (None for num_agents)
_GROUPS = (["environment"] * 3 + ["vehicle"] * 14 + ["terrain"] * 2
           + [None])


def _defaults():
    """(group, field name, default value) of every config field."""
    fields = vars(params.ScenarioConfig()).items()
    assert len(fields) == len(_GROUPS)
    for group, (name, value) in zip(_GROUPS, fields):
        yield group, name, value


def _builds(name, value):
    """Two ways to a default config whose field ``name`` is ``value``: the
    constructor, and ``dataclasses.replace``."""
    return (lambda: params.ScenarioConfig(**{name: value}),
            lambda: replace(params.ScenarioConfig(), **{name: value}))


@pytest.mark.parametrize("group, name, default, bad", [
    (group, name, default, bad) for group, name, default in _defaults()
    for bad in [math.nan, math.inf, -math.inf,
                *_OUT_OF_DOMAIN.get(name, [0.0, -1.0])]])
def test_bad_column_element_names_the_field(group, name, default, bad):
    # one bad element of an array column fails the whole config, scalar
    # fields and array fields checked by the same rule
    for build in _builds(name, np.array([[default], [bad]])):
        with pytest.raises(params.ValidationError, match=name):
            build()
    for build in _builds(name, bad):
        with pytest.raises(params.ValidationError, match=name):
            build()


@pytest.mark.parametrize("group, name, default", list(_defaults()))
def test_valid_column_constructs(group, name, default):
    column = np.array([[default], [default / 2]])
    for build in _builds(name, column):
        assert getattr(build(), name) is column


def _moved():
    """A valid value off the default for every field, by field name."""
    moved = {name: value / 2 if value else 0.01
             for name, value in vars(params.ScenarioConfig()).items()}
    return {**moved, "num_agents": 3}


@pytest.mark.parametrize("name, value", _moved().items())
def test_document_key_is_the_field(name, value):
    # the config and its document are one namespace: each key sets the
    # field of its name
    assert params.config_from_mapping({name: str(value)}) == \
        params.ScenarioConfig(**{name: value})


def test_every_field_moved_round_trips():
    cfg = params.ScenarioConfig(**_moved())
    assert all(value != default for value, default in zip(
        vars(cfg).values(), vars(params.ScenarioConfig()).values()))
    assert params.load_config(params.serialize(cfg)) == cfg


def test_serialize_default_document():
    assert params.serialize(params.ScenarioConfig()) == (
        "gravity = 1.352\nair_density = 5.4\nambient_temperature = -179.0\n"
        "cobot_mass = 0.8\nshell_radius_l = 0.2\nshell_width_w = 0.4\n"
        "body_height_h_rolling = 0.16\nbody_height_h_flying = 0.08\n"
        "drag_coefficient_cd = 2.1\nrotor_disk_radius = 0.0762\n"
        "rotor_arm_length_a = 0.14\nthrust_constant_k_t = 2e-06\n"
        "eta_propeller = 0.6\neta_motor = 0.85\neta_controller = 0.95\n"
        "battery_energy = 870000.0\nmax_rotor_thrust = 8.0\n"
        "rolling_resistance_crr = 0.01\nslope_theta = 0.0\n"
        "num_agents = 2\n")


def test_one_error_names_every_bad_field():
    with pytest.raises(params.ValidationError) as exc:
        params.load_config("air_density = -1\ncobot_mass = nan\n")
    assert str(exc.value) == ("air_density must be > 0 (got -1.0); "
                              "cobot_mass must be finite (got nan)")


def test_load_config_kv_text():
    # blank and comment-only lines are skipped
    cfg = params.load_config(
        "# rover on loose soil\n\ncobot_mass = 1.0\n   \n"
        "rolling_resistance_crr = 0.05  # loose soil\n  # agents\n"
        "num_agents = 3\n")
    assert cfg.cobot_mass == 1.0
    assert cfg.rolling_resistance_crr == 0.05
    assert cfg.num_agents == 3
    # unspecified fields keep defaults
    assert cfg.gravity == 1.352


def test_load_config_json():
    cfg = params.load_config('{"gravity": 9.81, "num_agents": 1}')
    assert cfg.gravity == 9.81
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
    # JSON that is no object does not open with {: it is read as key =
    # value lines
    for doc in ("[1, 2]", '"x"'):
        with pytest.raises(params.ConfigError,
                           match=r"^line 1: expected 'key = value', got "):
            params.load_config(doc)


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


_FIELD_NAMES = list(vars(params.ScenarioConfig()))


def _outcome(build, name):
    """The config ``build`` returns, or None for a ValidationError, which
    must name the field ``name``."""
    try:
        return build()
    except params.ValidationError as exc:
        assert name in str(exc)
        return None


@given(name=st.sampled_from(_FIELD_NAMES), x=st.floats())
@example(name="num_agents", x=2.5)
@example(name="num_agents", x=3.0)
@example(name="gravity", x=math.nan)
def test_text_and_number_build_the_same_config(name, x):
    # finite, non-integral, negative, infinite or NaN: the document's text
    # and the number itself meet the same rules
    assert _outcome(lambda: params.config_from_mapping({name: repr(x)}),
                    name) == \
        _outcome(lambda: params.ScenarioConfig(**{name: x}), name)


@pytest.mark.parametrize("name", _FIELD_NAMES)
@pytest.mark.parametrize("value", [
    True, False, np.True_, "9.8", None, [1.0], 1j,
    np.array([[True], [False]]), 10 ** 400, -10 ** 400],
    ids=["true", "false", "np-true", "str", "none", "list", "complex",
         "bool-array", "int-past-float-range", "negative-int-past-range"])
def test_non_number_names_the_field(name, value):
    for build in _builds(name, value):
        with pytest.raises(params.ValidationError,
                           match=f"^{name} must be (a real number|finite) "):
            build()


@pytest.mark.parametrize("name", _FIELD_NAMES)
def test_numpy_numbers_construct(name):
    default = getattr(params.ScenarioConfig(), name)
    for value in (np.int64(1), np.float64(default), np.ones((2, 1), int)):
        for build in _builds(name, value):
            assert getattr(build(), name) is value


def test_document_numbers_keep_their_type():
    # text is read as a float; a JSON number reaches the config as it is
    assert type(params.load_config("num_agents = 3\n").num_agents) is float
    assert type(params.load_config('{"num_agents": 3}').num_agents) is int
    cfg = params.load_config('{"num_agents": 3.0, "gravity": 2}')
    assert (cfg.num_agents, cfg.gravity) == (3, 2)
    assert params.load_config(params.serialize(cfg)) == cfg

