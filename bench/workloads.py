"""The benchmark's three workloads: seeded inputs, execution, references.

Every workload is closed-loop with a single client: one op runs at a time,
in one process, with no threads. An op is one call of a public entry point
(``terrain_map``, ``closed_loop``) or one cold ``mobilitylab`` process
(``cli_cold``). Inputs come only from ``random.Random(seed)``.

Each workload's ops fall into a few fixed cost classes (grid sizes, tick
counts); the seed varies the physical inputs inside each class. That keeps
the cost of a run, and which class its median and tail op fall in, the same
from seed to seed, while the outputs differ.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    kind: str
    args: dict
    work: float = 0.0
    known_defect: str | None = None
    # filled by setup: whatever the program call needs besides ``args``
    prepared: object = field(default=None, repr=False, compare=False)


def _u(rng, lo, hi, digits=6):
    return round(rng.uniform(lo, hi), digits)


def _rad(deg):
    return math.radians(deg)


# --------------------------------------------------------------------------
# terrain_map
# --------------------------------------------------------------------------
class TerrainMap:
    """Batch terrain analysis: trade-off grids, refined sweeps, scaling."""

    name = "terrain_map"
    work_unit = "cells/s"
    #: nominal seconds of one round at the baseline commit (2-core x86)
    round_s = 4.6
    base_s = 6.0    # the committed-shape 20x20 grid, once per run
    # Per round: 3 flying and 2 rolling sweeps, 1 scaling, 5 grids of 3x3
    # and 6 of 7x7. Adjacent cost classes differ by 2x or more; with two
    # rounds the median op lies in the middle of the 3x3 grids and the tail
    # op (ten ops beyond it: nine 7x7 grids and the 20x20) is the third
    # fastest 7x7 grid.

    @staticmethod
    def ops(seed: int, seconds: float) -> list[Op]:
        rng = random.Random(seed)
        rounds = max(1, round((seconds - TerrainMap.base_s)
                              / TerrainMap.round_s))
        # the committed artifact (Titan, two agents, default box, 20x20)
        # opens the run
        ops = [Op("grid", {"preset": "titan", "num_agents": 2,
                           "crr": [0.01, 0.2], "theta_deg": [-0.5, 2.0],
                           "resolution": 20}, 400.0)]
        for _ in range(rounds):
            batch = [
                Op("sweep", {"preset": "titan",
                             "num_agents": rng.choice([1, 2, 3, 4]),
                             "mode": "flying", "crr": 0.01,
                             "theta": _rad(_u(rng, -0.5, 3.0)),
                             "hotel_w": _u(rng, 0.0, 1.0)})
                for _ in range(3)]
            for preset in ("titan", "earth"):
                batch.append(Op("sweep", {
                    "preset": preset, "num_agents": rng.choice([1, 2, 3]),
                    "mode": "rolling", "crr": _u(rng, 0.005, 0.05),
                    "theta": _rad(_u(rng, 0.0, 3.0)),
                    "hotel_w": _u(rng, 0.0, 0.5)}))
            batch.append(Op("scaling", {
                "preset": "titan", "num_agents": 2,
                "crr": _u(rng, 0.005, 0.05), "theta": _rad(_u(rng, 0.0, 2.0)),
                "n_max": 12}))
            for _ in range(5):
                batch.append(Op("grid", {
                    "preset": rng.choice(["titan", "earth"]),
                    "num_agents": rng.choice([1, 2, 3, 4]),
                    "crr": [_u(rng, 0.01, 0.03), _u(rng, 0.15, 0.3)],
                    "theta_deg": [_u(rng, -0.4, 0.0), _u(rng, 2.0, 5.0)],
                    "resolution": 3}, 9.0))
            # eight agents on Earth: the steep, loose corner cannot roll
            for _ in range(6):
                batch.append(Op("grid", {
                    "preset": "earth", "num_agents": 8,
                    "crr": [_u(rng, 0.04, 0.06), _u(rng, 0.23, 0.27)],
                    "theta_deg": [_u(rng, -0.5, 0.5), _u(rng, 5.5, 6.5)],
                    "resolution": 7}, 49.0))
            rng.shuffle(batch)
            ops += batch
        return ops

    @staticmethod
    def warmup_op() -> Op:
        return Op("grid", {"preset": "titan", "num_agents": 2,
                           "crr": [0.01, 0.2], "theta_deg": [-0.5, 2.0],
                           "resolution": 3}, 9.0)

    @staticmethod
    def _mapping(args):
        env = ref.EARTH_ENV if args["preset"] == "earth" else ref.TITAN_ENV
        m = {**env, "num_agents": args["num_agents"]}
        if args.get("theta") is not None:
            m.update(rolling_resistance_crr=args["crr"],
                     slope_theta=args["theta"])
        return m

    def setup(self, ops, workdir):
        from mobilitylab import params
        for op in ops:
            op.prepared = params.config_from_mapping(self._mapping(op.args))

    @staticmethod
    def run(op):
        from mobilitylab import rangeopt
        a, cfg = op.args, op.prepared
        if op.kind == "grid":
            return rangeopt.tradeoff_grid(cfg, tuple(a["crr"]),
                                          tuple(a["theta_deg"]),
                                          a["resolution"])
        if op.kind == "sweep":
            return rangeopt.range_sweep(cfg, a["mode"], hotel_w=a["hotel_w"],
                                        refine=True)
        return rangeopt.scaling_bounds(cfg, range(1, a["n_max"] + 1))

    @staticmethod
    def observe(op, out):
        if op.kind == "grid":
            return {"crr": out.crr, "theta_deg": out.theta_deg,
                    "delta_range_km": out.delta_range_km,
                    "flying_range_km": out.flying_range_km}
        if op.kind == "sweep":
            return {"power": out.power, "range_km": out.range_km,
                    "optimum_v": out.optimum_v,
                    "optimum_range_km": out.optimum_range_km}
        return {"n": out.n, "ratio_lower": out.ratio_lower,
                "ratio_upper": out.ratio_upper}

    def expect(self, op):
        a = op.args
        p = {**ref.DEFAULTS, **self._mapping(a)}
        if op.kind == "grid":
            return ref.tradeoff_grid(p, a["crr"], a["theta_deg"],
                                     a["resolution"])
        if op.kind == "sweep":
            r = ref.range_sweep(p, a["mode"], a["hotel_w"], refine=True)
            return {k: r[k] for k in ("power", "range_km", "optimum_v",
                                      "optimum_range_km")}
        return ref.scaling_bounds(p, range(1, a["n_max"] + 1))


# --------------------------------------------------------------------------
# closed_loop
# --------------------------------------------------------------------------
class Setpoint:
    """Desired roll rate: constant, step or sine; callable as the package
    expects (t -> body-rate 3-vector), ``value(t)`` for the reference."""

    def __init__(self, spec: dict):
        self.spec = spec

    def value(self, t: float) -> float:
        s = self.spec
        if s["type"] == "step":
            return s["w1"] if t >= s["t_step"] else s["w0"]
        return s["mean"] + s["amp"] * math.sin(2.0 * math.pi * s["hz"] * t)

    def __call__(self, t: float) -> np.ndarray:
        return np.array([0.0, self.value(t), 0.0])


class ClosedLoop:
    """Sequential per-tick rolling simulation under PI rate control."""

    name = "closed_loop"
    work_unit = "sim_s/s"
    round_s = 2.7
    #: (dt, duration) per round: 2000 ticks twice, 6000 once (dt 0.01 or
    #: 0.005 by turns), 12000 twice. With six rounds the median op is in
    #: the middle of the 6000-tick class and the tail op the second fastest
    #: 12000-tick run.
    SLOTS = ((0.01, 20.0), (0.01, 20.0), None, (0.005, 60.0), (0.005, 60.0))
    SLOT_6000 = ((0.01, 60.0), (0.005, 30.0))

    @staticmethod
    def ops(seed: int, seconds: float) -> list[Op]:
        rng = random.Random(seed)
        rounds = max(1, round(seconds / ClosedLoop.round_s))
        ops = []
        for r in range(rounds):
            step_sat, thrust_sat = rng.sample(range(len(ClosedLoop.SLOTS)), 2)
            batch = []
            for k, slot in enumerate(ClosedLoop.SLOTS):
                dt, duration = slot or ClosedLoop.SLOT_6000[r % 2]
                mapping = {"num_agents": rng.choice([2, 3, 4]),
                           "slope_theta": _rad(_u(rng, -1.0, 3.0)),
                           "rolling_resistance_crr": _u(rng, 0.005, 0.1)}
                kind = rng.choice(["const", "step", "sine"])
                if k == step_sat:
                    kind = "step"
                if k == thrust_sat:
                    kind = "const"
                    mapping["max_rotor_thrust"] = _u(rng, 0.05, 0.2)
                if kind == "const":
                    sp = _u(rng, 0.3, 2.0)
                elif kind == "step":
                    sp = {"type": "step", "w0": _u(rng, 0.0, 1.0),
                          "w1": (_u(rng, 15.0, 20.0) if k == step_sat
                                 else _u(rng, 0.5, 3.0)),
                          "t_step": _u(rng, 2.0, 10.0)}
                else:
                    sp = {"type": "sine", "mean": _u(rng, 0.5, 1.5),
                          "amp": _u(rng, 0.2, 0.8), "hz": _u(rng, 0.05, 0.3)}
                duration = round(duration * rng.uniform(0.97, 1.03), 2)
                batch.append(Op("simulate", {"mapping": mapping, "setpoint": sp,
                                             "duration": duration, "dt": dt},
                                duration))
            rng.shuffle(batch)
            ops += batch
        return ops

    @staticmethod
    def warmup_op() -> Op:
        return Op("simulate", {"mapping": {}, "setpoint": 1.0,
                               "duration": 5.0, "dt": 0.01}, 5.0)

    @staticmethod
    def _setpoint(spec):
        return spec if isinstance(spec, float) else Setpoint(spec)

    def setup(self, ops, workdir):
        from mobilitylab import params
        for op in ops:
            op.prepared = (params.config_from_mapping(op.args["mapping"]),
                           self._setpoint(op.args["setpoint"]))

    @staticmethod
    def run(op):
        from mobilitylab import dynamics
        cfg, setpoint = op.prepared
        return dynamics.simulate_closed_loop(cfg, setpoint, op.args["duration"],
                                             op.args["dt"])

    @staticmethod
    def _summary(rows, roll_angle):
        rows = np.asarray(rows, float)
        picks = np.unique(np.linspace(0, len(rows) - 1, 17).astype(int))
        return {"rows": float(len(rows)), "sampled_rows": rows[picks],
                "final_roll_angle": roll_angle,
                "power_sum_w": float(rows[:, 4].sum()),
                "saturated_ticks": float(rows[:, 6].sum())}

    def observe(self, op, traj):
        return self._summary(traj.to_csv_rows(), traj.states[-1].roll_angle)

    def expect(self, op):
        a = op.args
        sp = self._setpoint(a["setpoint"])
        value = (lambda t: sp) if isinstance(sp, float) else sp.value
        rows, phi = ref.simulate_rolling({**ref.DEFAULTS, **a["mapping"]},
                                         value, a["duration"], a["dt"])
        return self._summary(rows, phi)


# --------------------------------------------------------------------------
# cli_cold
# --------------------------------------------------------------------------
#: console-script equivalent of the installed ``mobilitylab`` command
CLI_BOOT = "import sys; from mobilitylab.cli import main; sys.exit(main())"


def child_env(extra: dict | None = None) -> dict:
    """The benchmark's environment (thread pools already pinned by run.py),
    with the package source on the path and no inherited config fallback."""
    env = {k: v for k, v in os.environ.items() if k != "MOBILITYLAB_CONFIG"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def spawn(argv: list[str], env: dict, out_path: Path, err_path: Path):
    """Run a process to completion; return (exit code, its rusage).

    stdout and stderr go to files, so no pipe can fill up and no thread is
    needed; ``wait4`` gives the child's own peak RSS.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)])
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


class CliCold:
    """``mobilitylab`` in a fresh process: import, config, run, format."""

    name = "cli_cold"
    work_unit = "invocations/s"
    round_s = 5.8

    @staticmethod
    def ops(seed: int, seconds: float) -> list[Op]:
        rng = random.Random(seed)
        rounds = max(1, round(seconds / CliCold.round_s))
        ops = []
        for r in range(rounds):
            batch = CliCold._round(rng, r)
            rng.shuffle(batch)
            ops += batch
        return ops

    @staticmethod
    def _round(rng, r):
        ops = []

        def add(argv, cmd, fmt="csv", exit=0, preset="titan", overrides=None,
                files=None, env=None, out=None, stderr_has=None,
                known_defect=None, **params):
            ops.append(Op("cli", {
                "argv": argv, "files": files or {}, "env": env or {},
                "out": out, "expect": {"cmd": cmd, "format": fmt, "exit": exit,
                                       "preset": preset,
                                       "overrides": overrides or {},
                                       "stderr_has": stderr_has, **params}},
                1.0, known_defect))

        th = [_u(rng, 0.0, 0.04) for _ in range(3)]
        crr = _u(rng, 0.005, 0.05)
        n = rng.choice([1, 2, 3, 4])
        hotel = _u(rng, 0.05, 1.0)
        kv_name, js_name = f"kv{r}.cfg", f"js{r}.json"
        kv = {"cobot_mass": _u(rng, 0.7, 0.9),
              "rolling_resistance_crr": _u(rng, 0.005, 0.05),
              "num_agents": rng.choice([2, 3])}
        js = {"num_agents": rng.choice([1, 2, 3]),
              "eta_motor": _u(rng, 0.75, 0.9),
              "slope_theta": _u(rng, 0.0, 0.03)}
        kv_text = "# scenario\n" + "".join(f"{k} = {v}\n"
                                           for k, v in kv.items())
        kv_file = {kv_name: kv_text}
        d = "{dir}/"

        # README examples and script jobs
        add(["range-sweep", "--mode", "rolling",
             "--set", f"slope_theta={th[0]}"],
            "range-sweep", mode="rolling", overrides={"slope_theta": th[0]})
        add(["range-sweep", "--mode", "flying", "--format", "json",
             "--set", f"num_agents={n}"],
            "range-sweep", "json", mode="flying", overrides={"num_agents": n})
        add(["range-sweep", "--mode", "rolling", "--refine", "--format", "json",
             "--hotel-w", str(hotel)],
            "range-sweep", "json", mode="rolling", refine=True, hotel_w=hotel)
        add(["range-sweep", "--mode", "flying", "--refine", "--out",
             d + f"flying{r}.csv", "--set", f"slope_theta={th[1]}"],
            "range-sweep", mode="flying", refine=True, out=f"flying{r}.csv",
            overrides={"slope_theta": th[1]})
        add(["power-curve", "--env", "earth", "--mode", "flying", "--format",
             "json", "--set", f"num_agents={n}"],
            "power-curve", "json", preset="earth", mode="flying",
            overrides={"num_agents": n})
        add(["power-curve", "--mode", "rolling", "--set",
             f"rolling_resistance_crr={crr}"],
            "power-curve", mode="rolling",
            overrides={"rolling_resistance_crr": crr})
        box = {"crr_min": 0.01, "crr_max": _u(rng, 0.1, 0.3),
               "theta_min_deg": -0.5, "theta_max_deg": _u(rng, 1.0, 4.0)}
        # five 4x4 maps per round, the heaviest ops by a clear margin: with
        # three rounds the tail op is the fifth fastest of them
        add(["tradeoff-map", "--resolution", "4", "--format", "json",
             "--crr-max", str(box["crr_max"]),
             "--theta-max-deg", str(box["theta_max_deg"])],
            "tradeoff-map", "json", resolution=4, **box)
        add(["tradeoff-map", "--resolution", "4", "--env", "earth", "--format",
             "json", "--theta-max-deg", str(box["theta_max_deg"])],
            "tradeoff-map", "json", preset="earth", resolution=4,
            crr_min=0.01, crr_max=0.2, theta_min_deg=-0.5,
            theta_max_deg=box["theta_max_deg"])
        box2 = {"crr_min": _u(rng, 0.01, 0.05), "crr_max": 0.2,
                "theta_min_deg": -0.5, "theta_max_deg": 2.0}
        add(["tradeoff-map", "--resolution", "4", "--crr-min",
             str(box2["crr_min"]), "--out", d + f"map{r}.csv"],
            "tradeoff-map", resolution=4, out=f"map{r}.csv", **box2)
        add(["tradeoff-map", "--resolution", "4", "--format", "json", "--set",
             f"num_agents={n}"],
            "tradeoff-map", "json", resolution=4, overrides={"num_agents": n},
            crr_min=0.01, crr_max=0.2, theta_min_deg=-0.5, theta_max_deg=2.0)
        add(["tradeoff-map", "--resolution", "4", "--env", "earth", "--set",
             f"num_agents={n}"],
            "tradeoff-map", preset="earth", resolution=4,
            overrides={"num_agents": n}, crr_min=0.01, crr_max=0.2,
            theta_min_deg=-0.5, theta_max_deg=2.0)
        k = rng.randint(6, 12)
        add(["scaling", "--n-max", str(k), "--set",
             f"rolling_resistance_crr={crr}"],
            "scaling", n_min=1, n_max=k,
            overrides={"rolling_resistance_crr": crr})
        k2 = rng.randint(4, 12)
        add(["scaling", "--format", "json", "--n-min", "2", "--n-max", str(k2)],
            "scaling", "json", n_min=2, n_max=k2)
        add(["thermal"], "thermal")
        budget = _u(rng, 5.0, 12.0)
        add(["thermal", "--budget-w", str(budget), "--format", "json"],
            "thermal", "json", budget_w=budget)
        thick = _u(rng, 0.005, 0.05)
        add(["thermal", "--env", "earth", "--thickness-m", str(thick)],
            "thermal", preset="earth", thickness_m=thick)
        w, dur = _u(rng, 0.3, 1.5), _u(rng, 3.0, 6.0, 2)
        add(["simulate", "--omega-des", str(w), "--duration", str(dur),
             "--set", f"slope_theta={th[2]}"],
            "simulate", omega_des=w, duration=dur, dt=0.01, record_every=1,
            overrides={"slope_theta": th[2]})
        w2, dur2 = _u(rng, 0.3, 1.5), _u(rng, 2.0, 4.0, 2)
        add(["simulate", "--format", "json", "--omega-des", str(w2),
             "--duration", str(dur2), "--dt", "0.005", "--record-every", "10"],
            "simulate", "json", omega_des=w2, duration=dur2, dt=0.005,
            record_every=10)

        # config documents: key = value, JSON, env fallback, --set on top
        add(["range-sweep", "--mode", "rolling", "--format", "json",
             "--config", d + kv_name],
            "range-sweep", "json", mode="rolling", overrides=kv, files=kv_file)
        add(["power-curve", "--mode", "flying", "--config", d + js_name],
            "power-curve", mode="flying", overrides=js,
            files={js_name: json.dumps(js)})
        add(["range-sweep", "--mode", "flying", "--format", "json"],
            "range-sweep", "json", mode="flying", overrides=kv, files=kv_file,
            env={"MOBILITYLAB_CONFIG": d + kv_name})
        add(["range-sweep", "--mode", "rolling", "--format", "json",
             "--config", d + kv_name, "--set",
             f"rolling_resistance_crr={crr}"],
            "range-sweep", "json", mode="rolling",
            overrides={**kv, "rolling_resistance_crr": crr}, files=kv_file)

        # the README's exit-2 contract
        g = _u(rng, 0.5, 5.0)
        add(["range-sweep", "--mode", "rolling", "--set", f"gravity=-{g}"],
            "range-sweep", exit=2, stderr_has="gravity")
        add(["power-curve", "--mode", "flying", "--set", "warp_factor=9"],
            "power-curve", exit=2, stderr_has="warp_factor")
        add(["simulate", "--dt", str(_u(rng, 0.02, 0.1))], "simulate", exit=2,
            stderr_has="dt")
        add(["range-sweep", "--mode", "flying", "--config",
             d + f"missing{r}.cfg"], "range-sweep", exit=2)
        add(["scaling", "--config", d + f"bad{r}.cfg"], "scaling", exit=2,
            files={f"bad{r}.cfg": "num_agents 3\n"}, stderr_has="line 1")
        add(["range-sweep", "--mode", "sideways"], "range-sweep", exit=2)

        # known defects, expected to behave as documented
        add(["power-curve", "--env", "earth", "--mode", "flying", "--format",
             "json", "--config", d + kv_name],
            "power-curve", "json", preset="earth", mode="flying", overrides=kv,
            files=kv_file,
            known_defect="--env earth --config FILE runs on Titan")
        add(["tradeoff-map", "--resolution", "0"], "tradeoff-map", exit=2,
            known_defect="--resolution 0 exits 1")
        add(["range-sweep", "--mode", "rolling", "--config", d + f"nan{r}.cfg"],
            "range-sweep", exit=2, stderr_has="rolling_resistance_crr",
            files={f"nan{r}.cfg": "rolling_resistance_crr = nan\n"},
            known_defect="rolling_resistance_crr = nan is accepted")
        return ops

    @staticmethod
    def warmup_op() -> Op:
        return Op("cli", {"argv": ["thermal"], "files": {}, "env": {},
                          "out": None,
                          "expect": {"cmd": "thermal", "format": "csv",
                                     "exit": 0, "preset": "titan",
                                     "overrides": {}, "stderr_has": None}}, 1.0)

    #: set to a Tracer to run each op under ``cli_child.py`` and merge its trace
    tracer = None

    def __init__(self):
        self.import_s: list[float] = []

    def setup(self, ops, workdir: Path):
        self.workdir = workdir
        for i, op in enumerate(ops):
            a = op.args
            for name, text in a["files"].items():
                (workdir / name).write_text(text, encoding="utf-8")
            sub = lambda s: s.replace("{dir}", str(workdir))  # noqa: E731
            env = child_env({k: sub(v) for k, v in a["env"].items()})
            op.prepared = ([sub(x) for x in a["argv"]], env, i + 1)

    def run(self, op):
        """One cold process; (exit code, stdout, stderr, out file, rusage)."""
        argv, env, op_id = op.prepared
        trace = self.workdir / "child-trace.json"
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_BOOT]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(trace), str(op_id)]
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        target = self.workdir / op.args["out"] if op.args["out"] else None
        if target is not None and target.exists():
            target.unlink()
        code, usage = spawn(cmd + argv, env, out, err)
        if self.tracer is not None:
            data = json.loads(trace.read_text(encoding="utf-8"))
            trace.unlink()
            self.import_s.append(data["import_s"])
            self.tracer.merge(data)
        return (code, out.read_bytes(), err.read_text(errors="replace"),
                target.read_bytes() if target and target.exists() else None,
                usage)

    @staticmethod
    def _parse(data: bytes, fmt: str):
        text = data.decode("utf-8", errors="replace")
        if fmt == "json":
            try:
                return json.loads(text)
            except ValueError:
                return {"unparsable": text[:80]}
        lines = text.splitlines()
        if not lines:
            return {"header": "", "rows": np.zeros((0, 0))}
        try:
            rows = np.array([[float(c) for c in ln.split(",")]
                             for ln in lines[1:]], float)
        except ValueError:
            return {"header": lines[0], "rows": "unparsable"}
        return {"header": lines[0], "rows": rows}

    def observe(self, op, raw):
        code, stdout, stderr, out_file, _ = raw
        e = op.args["expect"]
        obs = {"exit": float(code)}
        if e["exit"] == 0:
            obs["output"] = self._parse(out_file if op.args["out"] else stdout,
                                        e["format"])
        else:
            obs["stdout_empty"] = not stdout
            obs["stderr_names_field"] = (e["stderr_has"] or "") in stderr
        return obs

    def expect(self, op):
        e = op.args["expect"]
        exp = {"exit": float(e["exit"])}
        if e["exit"] != 0:
            exp["stdout_empty"] = True
            exp["stderr_names_field"] = True
            return exp
        p = ref.scenario(e["preset"], **e["overrides"])
        header, rows, summary = _cli_reference(e, p)
        if e["format"] == "json":
            exp["output"] = summary
        else:
            exp["output"] = {"header": ",".join(header),
                             "rows": np.array(rows, float)}
        return exp


def _cli_reference(e: dict, p: dict):
    """Expected (header, rows, JSON summary) of one CLI invocation."""
    cmd = e["cmd"]
    if cmd in ("range-sweep", "power-curve"):
        hotel = e.get("hotel_w", 0.0)
        r = ref.range_sweep(p, e["mode"], hotel, refine=e.get("refine", False))
        ok = np.isfinite(r["power"])
        v, power, rng = r["velocity"][ok], r["power"][ok], r["range_km"][ok]
        if cmd == "range-sweep":
            return (["v_mps", "power_w", "range_km"],
                    np.column_stack([v, power, rng]),
                    {"mode": e["mode"], "optimum_v_mps": r["optimum_v"],
                     "optimum_range_km": r["optimum_range_km"]})
        i = int(np.nanargmin(r["power"]))
        return (["v_mps", "power_w"], np.column_stack([v, power]),
                {"mode": e["mode"], "min_power_w": float(r["power"][i]),
                 "min_power_v_mps": float(r["velocity"][i])})
    if cmd == "tradeoff-map":
        g = ref.tradeoff_grid(p, (e["crr_min"], e["crr_max"]),
                              (e["theta_min_deg"], e["theta_max_deg"]),
                              e["resolution"])
        rows, boundary = [], []
        for i, c in enumerate(g["crr"]):
            for j, th in enumerate(g["theta_deg"]):
                rows.append([c, th, g["delta_range_km"][i, j],
                             g["flying_range_km"][i, j]])
            neg = [j for j, d in enumerate(g["delta_range_km"][i])
                   if np.isfinite(d) and d < 0]
            if neg:
                boundary.append([float(c), float(g["theta_deg"][neg[0]])])
        return (["crr", "theta_deg", "delta_km", "fly_km"], rows,
                {"crossover_boundary_crr_thetadeg": boundary,
                 "flying_range_km_min": float(np.nanmin(g["flying_range_km"])),
                 "flying_range_km_max": float(np.nanmax(g["flying_range_km"]))})
    if cmd == "scaling":
        s = ref.scaling_bounds(p, range(e["n_min"], e["n_max"] + 1))
        return (["n", "ratio_lower", "ratio_upper"],
                np.column_stack([s["n"], s["ratio_lower"], s["ratio_upper"]]),
                {"n": s["n"], "ratio_lower": s["ratio_lower"],
                 "ratio_upper": s["ratio_upper"]})
    if cmd == "simulate":
        w = e["omega_des"]
        rows, _ = ref.simulate_rolling(p, lambda t: w, e["duration"], e["dt"],
                                       e["record_every"])
        last = rows[-1]
        return (["time_s", "position_m", "speed_mps", "omega_radps", "power_w",
                 "energy_j", "saturated"], rows,
                {"final_time_s": last[0], "final_speed_mps": last[2],
                 "final_omega_radps": last[3], "energy_consumed_j": last[5],
                 "saturated_any": any(row[6] for row in rows)})
    ambient = p["ambient_temperature"]
    summary = {"ambient_temp_c": ambient}
    if e.get("budget_w") is not None:
        t = ref.thermal_thickness(e["budget_w"], ambient)
        thicknesses = [t]
        summary.update(budget_w=e["budget_w"], thickness_m=t)
    elif e.get("thickness_m") is not None:
        thicknesses = [e["thickness_m"]]
    else:
        thicknesses = ref.THERMAL_GRID
    rows = ref.thermal_rows(ambient, thicknesses)
    summary["rows"] = len(rows)
    return (["thickness_m", "loss_w", "heater_w", "mass_kg"], rows, summary)


WORKLOADS = {w.name: w for w in (TerrainMap, ClosedLoop, CliCold)}
