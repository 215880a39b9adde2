"""Smoke-size tests of the benchmark itself (not of the package).

    python3 -m pytest bench/tests -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    s = spec()
    assert s["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in s["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == \
        list(run.END_TO_END)
    assert [m["name"] for m in s["per_layer"]] == list(run.PER_LAYER)
    units = tracer_mod.layer_metrics({}, [], 0)
    units.update({"bench.traced_wall_s": (0, "s"),
                  "bench.trace_overhead_s": (0, "s")})
    for m in s["per_layer"]:
        assert m["unit"] == units[m["name"]][1], m["name"]


def test_every_issue_layer_metric_is_reported():
    names = set(tracer_mod.layer_metrics({}, [], 0))
    for layer in ("aeropower.induced_velocity.calls",
                  "aeropower.induced_velocity.self_s",
                  "aeropower.induced_velocity.calls_per_point",
                  "aeropower.rotor_power.calls",
                  "steadystate.rolling_equilibrium.self_s",
                  "steadystate.flying_equilibrium.calls",
                  "steadystate.infeasible_frac",
                  "rangeopt.tradeoff_grid.self_s",
                  "rangeopt.scaling_bounds.self_s",
                  "rangeopt.range_sweep.calls",
                  "control.pi_rate_control.self_s",
                  "control.mixer_matrix.calls", "control.saturated_frac",
                  "dynamics.simulate_closed_loop.self_s",
                  "dynamics.rolling_electrical_power.calls_per_tick",
                  "params.load_config.self_s", "cli.import_s",
                  "cli.main.self_s", "cli.emit_bytes",
                  "thermal.sizing_table.self_s"):
        assert layer in names


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_come_from_the_seed(name):
    w = workloads.WORKLOADS[name]

    def inputs(seed):
        return [(op.kind, json.dumps(op.args, sort_keys=True))
                for op in w.ops(seed, 25)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    assert len(inputs(7)) == len(inputs(8))


def test_tail_is_the_highest_percentile_with_ten_beyond():
    lat = list(range(1, 41))
    value, pct, beyond = run.tail(lat)
    assert value == 30 and beyond == 10 and pct == 75.0
    assert sum(x > value for x in lat) == 10


def _terrain_op():
    op = workloads.TerrainMap.warmup_op()
    w = workloads.TerrainMap()
    w.setup([op], None)
    return w, op


def test_host_clock_samples_during_an_op_and_takes_the_probes_out():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    clock = hostspeed.HostClock()
    result, raw, factor = clock.call(busy, 0.35)
    assert result == "done"
    assert len(clock._samples) >= 4        # before, three or so during, after
    assert 0.35 - clock._probe_s - 0.01 < raw <= 0.35 - clock._probe_s + 0.05
    assert factor > 0

    clock = hostspeed.HostClock(in_process=False)
    clock.call(busy, 0.25)
    assert len(clock._samples) == 2 and clock._probe_s == 0.0


def test_reference_accepts_the_program_and_rejects_a_perturbation():
    w, op = _terrain_op()
    observed = w.observe(op, w.run(op))
    expected = w.expect(op)
    assert run.check(w, [op], [observed], [expected]) == ([], [])
    observed["delta_range_km"] = observed["delta_range_km"].copy()
    observed["delta_range_km"][1, 1] *= 1.0 + 1e-4
    unexpected, known = run.check(w, [op], [observed], [expected])
    assert len(unexpected) == 1 and not known


def test_closed_loop_reference_and_perturbation():
    w = workloads.ClosedLoop()
    op = workloads.Op("simulate", {
        "mapping": {"max_rotor_thrust": 0.1},
        "setpoint": {"type": "step", "w0": 0.2, "w1": 16.0, "t_step": 0.5},
        "duration": 2.0, "dt": 0.01}, 2.0)
    w.setup([op], None)
    observed = w.observe(op, w.run(op))
    assert observed["saturated_ticks"] > 0
    expected = w.expect(op)
    assert reference.close(observed, expected) is None
    observed["power_sum_w"] += 1e-3
    assert reference.close(observed, expected) is not None


def test_exit_code_mismatch_counts_as_failed(tmp_path):
    w = workloads.CliCold()
    ops = [op for op in w._round(random.Random(0), 0)
           if op.args["expect"]["exit"] == 2]
    op = next(o for o in ops if o.known_defect is None)
    w.setup([op], tmp_path)
    expected = w.expect(op)
    good = w.observe(op, (2, b"", "error: " + (op.args["expect"]["stderr_has"]
                                               or ""), None, None))
    bad = w.observe(op, (1, b"", "error: boom", None, None))
    assert run.check(w, [op], [good], [expected]) == ([], [])
    unexpected, known = run.check(w, [op], [bad], [expected])
    assert len(unexpected) == 1 and not known


def test_known_defect_ops_are_counted_apart(tmp_path):
    w = workloads.CliCold()
    op = next(o for o in w._round(random.Random(0), 0)
              if o.known_defect and "resolution" in o.known_defect)
    w.setup([op], tmp_path)
    raw = w.run(op)
    unexpected, known = run.check(w, [op], [w.observe(op, raw)],
                                  [w.expect(op)])
    # exits 1 today; counted as a known defect until it exits 2
    assert not unexpected and len(known) == (0 if raw[0] == 2 else 1)


def test_tracer_wraps_module_attributes_and_from_imports(tmp_path):
    from mobilitylab import aeropower, cli, params
    original = params.config_from_mapping
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert cli.config_from_mapping is params.config_from_mapping
        assert cli.config_from_mapping is not original
        tr.run_op(1, "probe", cli.main, ["thermal", "--thickness-m", "0.02",
                                         "--out", str(tmp_path / "t.csv")])
        aeropower.induced_velocity(1.0, params.titan_defaults(), 0.01, 1.0)
    finally:
        tr.uninstall()
    assert params.config_from_mapping is original
    assert cli.config_from_mapping is original
    assert tr.stats["params.config_from_mapping"][tracer_mod.CALLS] == 1
    assert tr.stats["thermal.sizing_table"][tracer_mod.CALLS] == 1
    assert tr.stats["aeropower.induced_velocity"][tracer_mod.CALLS] == 1
    # self time excludes children: the op span's self time is below its total
    op_row = tr.stats["op.probe"]
    assert 0 <= op_row[tracer_mod.SELF_S] < op_row[tracer_mod.TOTAL_S]
    spans = {s[0]: s for s in tr.spans}
    main = next(s for s in tr.spans if s[3] == "cli.main")
    assert spans[main[1]][3] == "op.probe"


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_one_command_prints_every_metric_with_units():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed_loop",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    res = _result(out.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        dict(run.END_TO_END)
    assert all(math.isfinite(v["value"]) and v["value"] > 0
               for v in res["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_reference_inflow_matches_closed_form_hover_and_quartic():
    rhs_scale = 2.0 * 5.4 * 0.018
    assert np.isclose(reference.induced_velocity(1.0, rhs_scale, 0.0, 0.0),
                      math.sqrt(1.0 / rhs_scale))
    nu = float(reference.induced_velocity(1.0, rhs_scale, 2.0, 0.3))
    resid = nu * math.hypot(2.0 * math.cos(0.3), 2.0 * math.sin(0.3) + nu)
    assert math.isclose(resid, 1.0 / rhs_scale, rel_tol=1e-12)
