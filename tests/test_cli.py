import argparse
import io
import json
import math
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mobilitylab import cli, steadystate
from mobilitylab.params import ScenarioConfig


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_emit_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    n = cli.emit_csv(["a", "b"], [[1.0, 0.123456789123]], str(path))
    data = path.read_bytes()
    assert n == len(data)
    assert data == b"a,b\n1,0.123456789\n"


def test_emit_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    cli.emit_csv(["x"], [], str(path))
    assert path.read_bytes() == b"x\n"


def test_emit_csv_deterministic(tmp_path):
    rows = [[1 / 3], [2 / 7]]
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    cli.emit_csv(["a"], rows, str(p1))
    cli.emit_csv(["a"], rows, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_range_sweep_csv(tmp_path, capsys):
    out = tmp_path / "roll.csv"
    code, _, _ = run(["range-sweep", "--mode", "rolling",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "v_mps,power_w,range_km"
    assert len(lines) == 201


def test_range_sweep_json_summary(capsys):
    code, stdout, _ = run(["range-sweep", "--mode", "flying",
                           "--format", "json"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["mode"] == "flying"
    assert summary["optimum_range_km"] > 0


def test_bad_override_exits_2(capsys):
    code, _, err = run(["range-sweep", "--mode", "rolling",
                        "--set", "cobot_mass=-1"], capsys)
    assert code == 2
    assert "cobot_mass" in err


def test_unknown_key_exits_2(capsys):
    code, _, err = run(["range-sweep", "--mode", "rolling",
                        "--set", "warp=9"], capsys)
    assert code == 2
    assert "warp" in err


def test_infeasible_exits_1(capsys):
    code, _, err = run(["thermal", "--budget-w", "0.5"], capsys)
    assert code == 1
    assert "asymptote" in err


def test_set_equivalent_to_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("cobot_mass = 0.9\nrolling_resistance_crr = 0.02\n")
    via_file = tmp_path / "a.csv"
    via_set = tmp_path / "b.csv"
    assert run(["range-sweep", "--mode", "rolling", "--config", str(cfg),
                "--out", str(via_file)], capsys)[0] == 0
    assert run(["range-sweep", "--mode", "rolling",
                "--set", "cobot_mass=0.9",
                "--set", "rolling_resistance_crr=0.02",
                "--out", str(via_set)], capsys)[0] == 0
    assert via_file.read_bytes() == via_set.read_bytes()


def test_config_env_var_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("cobot_mass = 0.9\n")
    explicit = tmp_path / "a.csv"
    fallback = tmp_path / "b.csv"
    assert run(["range-sweep", "--mode", "rolling", "--config", str(cfg),
                "--out", str(explicit)], capsys)[0] == 0
    monkeypatch.setenv("MOBILITYLAB_CONFIG", str(cfg))
    assert run(["range-sweep", "--mode", "rolling",
                "--out", str(fallback)], capsys)[0] == 0
    assert explicit.read_bytes() == fallback.read_bytes()


def test_missing_config_file_exits_2(capsys):
    code, _, err = run(["range-sweep", "--mode", "rolling",
                        "--config", "/nonexistent/cfg.txt"], capsys)
    assert code == 2


def test_earth_preset(capsys):
    code, stdout, _ = run(["power-curve", "--env", "earth",
                           "--mode", "flying", "--format", "json"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    # two agents hovering on Earth draw hundreds of watts
    assert summary["min_power_w"] > 100


def test_simulate_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run(["simulate", "--omega-des", "0.5", "--duration", "1",
                      "--dt", "0.01", "--record-every", "10",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("time_s,position_m")
    assert len(lines) == 12


@pytest.mark.parametrize("argv", [
    ["--duration", "1e-9"],
    ["--duration", "0.004"],
    ["--duration", "1", "--record-every", "1000", "--format", "json"],
    ["--duration", "1", "--dt", "0.005", "--record-every", "201"],
])
def test_simulate_recording_nothing_exits_2(capsys, argv):
    code, stdout, err = run(["simulate", *argv], capsys)
    assert code == 2
    assert stdout == ""
    assert "--duration" in err and "--record-every" in err


def test_simulate_records_at_exactly_record_every_steps(capsys):
    code, stdout, _ = run(["simulate", "--duration", "1", "--dt", "0.005",
                           "--record-every", "200", "--format", "json"],
                          capsys)
    assert code == 0
    assert json.loads(stdout)["final_time_s"] == pytest.approx(1.0)


def test_simulate_bad_dt_exits_2(capsys):
    code, _, err = run(["simulate", "--dt", "0.5"], capsys)
    assert code == 2
    assert "--dt" in err


def test_thermal_table(capsys):
    code, stdout, _ = run(["thermal", "--thickness-m", "0.02"], capsys)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "thickness_m,loss_w,heater_w,mass_kg"
    t, loss, heater, mass = map(float, lines[1].split(","))
    assert loss == pytest.approx(5.40, rel=5e-3)
    assert heater == pytest.approx(loss / 0.95, rel=1e-6)


def test_thermal_budget_solution(capsys):
    code, stdout, _ = run(["thermal", "--budget-w", "10.42",
                           "--format", "json"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["thickness_m"] == pytest.approx(0.010, rel=2e-2)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("target", ["a directory", "a missing directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, target, fmt):
    out = tmp_path if target == "a directory" else tmp_path / "no" / "x.out"
    code, stdout, err = run(["thermal", "--format", fmt, "--out", str(out)],
                            capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: --out {out}: ") and err.count("\n") == 1


def test_failed_stdout_write_is_not_an_out_error(monkeypatch):
    class ClosedPipe:
        def write(self, data):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli.sys, "stdout",
                        SimpleNamespace(buffer=ClosedPipe()))
    with pytest.raises(BrokenPipeError):
        cli.main(["thermal"])


def test_thermal_budget_and_thickness_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["thermal", "--budget-w", "6", "--thickness-m", "0.02"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--budget-w" in out.err and "--thickness-m" in out.err


def test_scaling_csv(capsys):
    code, stdout, _ = run(["scaling", "--n-min", "1", "--n-max", "3"],
                          capsys)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "n,ratio_lower,ratio_upper"
    assert len(lines) == 4


def test_tradeoff_map_csv(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code, _, _ = run(["tradeoff-map", "--resolution", "4",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "crr,theta_deg,delta_km,fly_km"
    assert len(lines) == 17


def test_tradeoff_map_bad_resolution_exits_2(capsys):
    code, _, err = run(["tradeoff-map", "--resolution", "0"], capsys)
    assert code == 2
    assert "--resolution" in err


@pytest.mark.parametrize("argv, message", [
    (["--crr-min", "0.2", "--crr-max", "0.01"],
     "--crr-max must be >= --crr-min (got 0.01 < 0.2)"),
    (["--theta-min-deg", "2", "--theta-max-deg", "-0.5"],
     "--theta-max-deg must be >= --theta-min-deg (got -0.5 < 2.0)"),
], ids=["crr", "theta"])
def test_tradeoff_map_reversed_box_exits_2(capsys, argv, message):
    code, stdout, err = run(["tradeoff-map", *argv], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"


def test_tradeoff_map_without_feasible_flying_point_exits_1(capsys):
    code, stdout, err = run(["tradeoff-map", "--resolution", "3", "--set",
                             "max_rotor_thrust=1e-9", "--format", "json"],
                            capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and "flying" in err


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_json_summary_writes_non_finite_as_null(capsys):
    # rolling is infeasible for the larger prisms at this resistance
    code, stdout, _ = run(["scaling", "--set", "rolling_resistance_crr=3",
                           "--format", "json"], capsys)
    assert code == 0
    summary = json.loads(stdout, parse_constant=_reject_constant)
    assert None in summary["ratio_lower"]
    assert all(r is None or r > 0 for r in summary["ratio_lower"])


@pytest.mark.parametrize("override", ["rolling_resistance_crr=nan",
                                      "gravity=inf", "cobot_mass=-inf",
                                      "ambient_temperature=nan"])
def test_non_finite_field_exits_2(capsys, override):
    code, _, err = run(["range-sweep", "--mode", "rolling",
                        "--set", override], capsys)
    assert code == 2
    assert override.split("=")[0] in err


def test_solver_error_exits_1(capsys, monkeypatch):
    from mobilitylab import aeropower, rangeopt

    def diverge(*args, **kwargs):
        raise aeropower.SolverError("did not converge")

    monkeypatch.setattr(rangeopt, "range_sweep", diverge)
    code, _, err = run(["range-sweep", "--mode", "flying"], capsys)
    assert code == 1
    assert err.startswith("error:") and "did not converge" in err


def test_unconverged_flying_trim_is_one_error_line(capsys, monkeypatch):
    # no iteration at all: one step from the analytic start already
    # converges the slowest speeds
    monkeypatch.setattr(steadystate, "TRIM_MAX_ITER", 0)
    code, out, err = run(["range-sweep", "--mode", "flying"], capsys)
    assert code == 1 and out == ""
    assert err == ("error: flying trim did not converge at 200 speed(s), "
                   "v = 0.05 to 5 m/s\n")


def test_unconverged_inflow_is_one_error_line(capsys, monkeypatch):
    from mobilitylab import aeropower

    monkeypatch.setattr(aeropower, "INDUCED_MAX_ITER", 1)
    code, out, err = run(["range-sweep", "--mode", "flying"], capsys)
    assert code == 1 and out == ""
    assert err == ("error: induced velocity Newton solve did not converge "
                   "to 1e-10 in 1 iterations\n")


def test_steep_downhill_flying_sweep_converges(capsys):
    code, out, err = run(["range-sweep", "--mode", "flying",
                          "--set", "slope_theta=-0.5"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("v_mps,")


def test_earth_preset_with_config_file(tmp_path, capsys):
    # preset < file keys < --set: the file must not reset the environment
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("cobot_mass = 0.8\n")
    code, stdout, _ = run(["power-curve", "--env", "earth", "--mode",
                           "flying", "--config", str(cfg), "--format",
                           "json"], capsys)
    assert code == 0
    assert json.loads(stdout)["min_power_w"] == pytest.approx(207.7,
                                                              rel=1e-3)
    code, stdout, _ = run(["power-curve", "--env", "earth", "--mode",
                           "flying", "--config", str(cfg), "--set",
                           "gravity=1.352", "--set", "air_density=5.4",
                           "--format", "json"], capsys)
    assert code == 0
    assert json.loads(stdout)["min_power_w"] < 10


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_simulate_non_finite_omega_des_exits_2(capsys, value):
    code, stdout, err = run(["simulate", f"--omega-des={value}"], capsys)
    assert code == 2
    assert "--omega-des" in err
    assert stdout == ""


def test_simulate_overflowing_omega_des_is_the_limit_torque(capsys):
    # pair forces of a 1.79e308 command overflow to inf; the run still
    # gives the saturated rows of any large command, not NaN
    rows = {}
    for value in ("1.79e308", "1e300"):
        code, stdout, _ = run(["simulate", "--omega-des", value,
                               "--duration", "0.03"], capsys)
        assert code == 0
        rows[value] = np.array([line.split(",")
                                for line in stdout.splitlines()[1:]], float)
    huge = rows["1.79e308"]
    assert np.isfinite(huge).all()
    assert (huge[1:, 6] == 1).all()
    np.testing.assert_allclose(huge, rows["1e300"], rtol=1e-12, atol=0)


def test_set_yaw_torque_constant_is_an_unknown_key(capsys):
    # no model takes a rotor yaw torque, so no field holds its constant
    code, _, err = run(["simulate", "--duration", "0.05", "--set",
                        "torque_constant_k_tau=0.016"], capsys)
    assert code == 2
    assert "torque_constant_k_tau" in err


@pytest.mark.parametrize("text", ["torque_constant_k_tau = 0.016\n",
                                  '{"torque_constant_k_tau": 0.016}'])
def test_config_file_naming_yaw_torque_constant_exits_2(tmp_path, capsys,
                                                        text):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    code, _, err = run(["range-sweep", "--mode", "rolling", "--config",
                        str(cfg)], capsys)
    assert code == 2
    assert "torque_constant_k_tau" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_non_finite_duration_exits_2(capsys, value):
    code, _, err = run(["simulate", "--duration", value], capsys)
    assert code == 2
    assert "--duration" in err


@given(n_min=st.integers(-5, 15), n_max=st.integers(-5, 15))
def test_scaling_bad_agent_range_exits_2(n_min, n_max):
    assume(n_min < 1 or n_max < n_min)
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main(["scaling", "--n-min", str(n_min),
                         "--n-max", str(n_max)])
    assert code == 2
    assert ("--n-min" if n_min < 1 else "--n-max") in err.getvalue()


def test_non_integral_num_agents_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"num_agents": 2.7}')
    code, _, err = run(["range-sweep", "--mode", "rolling",
                        "--config", str(cfg)], capsys)
    assert code == 2
    assert "num_agents" in err


def test_thermal_grid_is_linspace_bitwise():
    grid = np.array(cli.THERMAL_THICKNESS_GRID)
    assert grid.tobytes() == np.linspace(0.005, 0.05, 46).tobytes()


def _float_flags():
    """(subcommand, option) for every float-typed option of the parser."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, parser in sub.choices.items()
            for action in parser._actions if action.type is float]


_REQUIRED = {"range-sweep": ["--mode", "rolling"],
             "power-curve": ["--mode", "rolling"]}


@given(flag=st.sampled_from(_float_flags()),
       value=st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_float_flag_exits_2(flag, value):
    subcommand, option = flag
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main([subcommand, *_REQUIRED.get(subcommand, []),
                         f"{option}={value}"])
    assert code == 2
    assert option in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["tradeoff-map", "--theta-max-deg", "120", "--theta-min-deg", "100"],
    ["tradeoff-map", "--theta-max-deg", "-90"],
    ["tradeoff-map", "--crr-min", "-0.01"],
    ["range-sweep", "--mode", "flying", "--hotel-w", "-1"],
    ["thermal", "--budget-w", "0"],
    ["thermal", "--thickness-m", "-1"],
])
def test_out_of_domain_flag_exits_2(capsys, argv):
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {argv[-2]} must be")


@pytest.mark.parametrize("argv", [
    ["thermal", "--thickness-m", "1e308"],
    ["simulate", "--set", "shell_radius_l=1e200"],
    ["range-sweep", "--mode", "rolling", "--set", "rotor_disk_radius=1e200"],
])
def test_float_overflow_exits_1(capsys, argv):
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, name", [
    (["thermal", "--env", "earth", "--budget-w", "5"], "ambient_temperature"),
    (["thermal", "--budget-w", "1e308"], "budget"),
    (["thermal", "--thickness-m", "1e-300"], "thickness"),
], ids=["warm-ambient", "huge-budget", "tiny-thickness"])
def test_thermal_error_names_a_settable_input(capsys, argv, name):
    # a warm ambient, or a thickness (given or solved) below float
    # resolution at the cavity radius, is named as the input that caused it
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and name in err


def _config_fields():
    """Every config field name, the sections' fields flattened."""
    config = ScenarioConfig()
    for f in fields(config):
        section = getattr(config, f.name)
        if is_dataclass(section):
            yield from (g.name for g in fields(section))
        else:
            yield f.name


#: keys of removed fields: a document naming one fails by name, whatever
#: its value, rather than loading without it
_REMOVED_KEYS = ("torque_constant_k_tau",)
_HALF_PI = repr(math.pi / 2)
#: out-of-domain values of the fields whose domain is not "> 0"
_OUT_OF_DOMAIN = {"ambient_temperature": ["-273.15", "-500"],
                  "eta_propeller": ["1.5"], "eta_motor": ["1.5"],
                  "eta_controller": ["1.5"],
                  "rolling_resistance_crr": ["-0.01"],
                  "slope_theta": [_HALF_PI, "-" + _HALF_PI],
                  "num_agents": ["0"],
                  # in domain, but pi r^2 and the roll inertia underflow
                  "rotor_disk_radius": ["0", "-1", "1e-200"],
                  "shell_radius_l": ["0", "-1", "1e-200"]}


@pytest.mark.parametrize("name, value", [
    (name, value) for name in [*_config_fields(), *_REMOVED_KEYS]
    for value in ["nan", "inf", "-inf",
                  *_OUT_OF_DOMAIN.get(name, ["0", "-1"])]])
def test_bad_config_field_exits_2(capsys, name, value):
    code, stdout, err = run(["thermal", "--set", f"{name}={value}"], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize("name", [*_config_fields(), *_REMOVED_KEYS])
@pytest.mark.parametrize("value", ["true", "false"])
def test_json_boolean_config_field_exits_2(tmp_path, capsys, name, value):
    # a JSON boolean is an int to Python (true is 1.0): never a number here
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{name}": {value}}}')
    code, stdout, err = run(["thermal", "--config", str(cfg)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize("name, argv", [
    ("battery_energy", ["--set", "battery_energy=1e308"]),
    ("cobot_mass", ["--set", "cobot_mass=1e308"]),
    ("num_agents", ["--config", "agents.json"]),
])
def test_agent_total_overflow_exits_2(tmp_path, capsys, monkeypatch, name,
                                      argv):
    # finite per agent, but the total over num_agents is not a float
    (tmp_path / "agents.json").write_text(
        '{"num_agents": 1' + "0" * 399 + "}")
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(["range-sweep", "--mode", "rolling", *argv],
                            capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize("via_env", [False, True],
                         ids=["--config", "MOBILITYLAB_CONFIG"])
def test_non_utf8_config_exits_2(tmp_path, capsys, monkeypatch, via_env):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"gravity = 1.3\xff\n")
    if via_env:
        monkeypatch.setenv("MOBILITYLAB_CONFIG", str(cfg))
        argv = ["thermal"]
    else:
        argv = ["thermal", "--config", str(cfg)]
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and str(cfg) in err


# -- cold start: a fresh interpreter loads only what the subcommand needs --

_SRC = str(Path(cli.__file__).resolve().parents[1])
_ENV = {**{k: v for k, v in os.environ.items() if k != "MOBILITYLAB_CONFIG"},
        "PYTHONPATH": os.pathsep.join(
            filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}

#: runs the CLI, then prints the exit code and the loaded modules (json,
#: numpy and the package's) on stderr
_PROBE = """
import sys
from mobilitylab.cli import main
try:
    code = main()
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m for m in sys.modules
                    if m in ("json", "numpy") or m.startswith("mobilitylab.")),
      file=sys.stderr)
"""


def _python(*args):
    """A fresh interpreter, every warning an error as in the in-process
    suite."""
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, env=_ENV,
                          timeout=120)


@pytest.mark.parametrize("argv", [
    ["range-sweep", "--mode", "rolling", "--set", "num_agents=1e300"],
    ["scaling", "--set", "battery_energy=1e307"],
    ["scaling", "--set", "cobot_mass=1e307", "--set", "num_agents=1"],
], ids=["thrust-far-beyond-limit", "range-overflow", "weight-overflow"])
def test_huge_input_exits_1_without_runtime_warning(argv):
    # a fresh process: stderr is what a user sees, warning filters included
    proc = _python("-m", "mobilitylab.cli", *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1  # the error line and nothing else
    assert "RuntimeWarning" not in proc.stderr


def _cold(*argv):
    """Exit code and loaded modules of a CLI call in a fresh interpreter."""
    code, *loaded = _python("-c", _PROBE, *argv).stderr.splitlines()[-1] \
        .split()
    return int(code), set(loaded)


def test_import_loads_no_submodule():
    proc = _python("-c", "import sys, mobilitylab; print(*(m for m in "
                   "sys.modules if m.startswith('mobilitylab.')))")
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("argv, exit_code", [
    (["thermal"], 0),
    (["range-sweep", "--mode", "rolling", "--set", "gravity=-1"], 2),
    (["range-sweep", "--mode", "sideways"], 2),
    (["simulate", "--dt", "0.05"], 2),
])
def test_cold_call_without_numpy(argv, exit_code):
    code, loaded = _cold(*argv)
    assert code == exit_code
    assert not loaded & {"json", "numpy"}


def test_range_sweep_loads_no_dynamics_or_thermal():
    code, loaded = _cold("range-sweep", "--mode", "rolling")
    assert code == 0
    assert "mobilitylab.rangeopt" in loaded
    assert not loaded & {"json", "mobilitylab.dynamics",
                         "mobilitylab.thermal"}


def test_run_as_module_is_quiet():
    proc = _python("-m", "mobilitylab.cli", "thermal")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("thickness_m,loss_w,heater_w,mass_kg\n")


def test_readme_examples_exit_0(tmp_path, capsys):
    # every mobilitylab line of README.md's "Examples:" block, as written
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split(
        "Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.startswith("mobilitylab ")]
    assert lines
    for line in lines:
        out = tmp_path / "out"
        assert cli.main(shlex.split(line)[1:] + ["--out", str(out)]) == 0, \
            line
        assert out.stat().st_size > 0, line
