#!/usr/bin/env python3
"""Seeded benchmark of mobilitylab: terrain maps, closed-loop runs, cold CLI.

    python3 bench/run.py --workload terrain_map --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``. One
run generates the workload's ops from ``--seed``, sets up, runs one untimed
warm-up op, then runs the ops one at a time and checks every output against
the independent reference model in ``reference.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same ops
once untraced and once with the outside-in tracer (``tracer.py``) installed,
checks both, and reports per-layer metrics plus the tracing overhead; the
spans go to ``.bench_out/trace-<workload>-seed<seed>.json``.

Times are in reference-host seconds (``hostspeed.py``): each op's wall time
is divided by the host's slowdown measured around and during it; the raw
wall-clock figures are in the report. The amount of work in a run is fixed by
``--seconds``: each workload has a nominal cost per round of ops,
measured at the baseline commit, and a run holds as many rounds as fit in
``--seconds``. A faster program finishes the same work sooner. The last
stdout line is the result JSON; the lines before it are a human-readable
table and a JSON report with the host, tail percentile, failure split and
(traced) every per-layer metric.
"""

import os

#: numerical thread pools pinned to one thread, here and in every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(BENCH), str(SRC)]

import hostspeed  # noqa: E402

WORKLOADS = ("terrain_map", "closed_loop", "cli_cold")
#: fresh-process set-ups per run, besides the run's own; setup_s is the median
SETUP_PROBES = 4

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("work_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
#: per-layer metrics of the result line: those that are measured on every
#: workload, plus counts and ratios (the report line carries all of them)
PER_LAYER = ("aeropower.induced_velocity.calls",
             "aeropower.induced_velocity.self_s",
             "aeropower.induced_velocity.calls_per_point",
             "aeropower.rotor_power.calls",
             "steadystate.rolling_equilibrium.calls",
             "steadystate.flying_equilibrium.calls",
             "steadystate.infeasible_frac",
             "rangeopt.range_sweep.calls",
             "control.allocate.self_s",
             "control.mixer_matrix.calls",
             "control.saturated_frac",
             "dynamics.step_rolling.calls",
             "dynamics.rolling_electrical_power.calls_per_tick",
             "params.config_from_mapping.calls",
             "params.config_from_mapping.self_s",
             "cli.emit_bytes",
             "bench.traced_wall_s",
             "bench.trace_overhead_s")


class SetupError(RuntimeError):
    """The checkout has no importable package to benchmark."""


def timed_setup(name: str, seed: int, seconds: float, workdir: Path):
    """Import, build configs, generate inputs, run one warm-up op.

    Returns (workload, ops, seconds taken in reference-host seconds).
    """
    def setup():
        if not (SRC / "mobilitylab" / "__init__.py").is_file():
            raise SetupError(f"no package source under {SRC}")
        package = importlib.import_module("mobilitylab")
        if not Path(package.__file__).resolve().is_relative_to(SRC):
            raise SetupError(f"mobilitylab imported from {package.__file__}, "
                             f"not from {SRC}")
        import workloads
        workload = workloads.WORKLOADS[name]()
        ops = workload.ops(seed, seconds)
        workload.setup(ops, workdir)
        warm = workload.warmup_op()
        workload.setup([warm], workdir)
        workload.run(warm)
        return workload, ops

    clock = hostspeed.HostClock(in_process=name != "cli_cold")
    (workload, ops), raw, factor = clock.call(setup)
    return workload, ops, raw / factor


@dataclass
class Pass:
    latencies: list    # s per op, in reference-host seconds
    raw: list          # s per op, wall clock
    factors: list      # host slowdown around and during each op
    observed: list
    rss_mb: float
    emitted: int


def run_pass(workload, ops, tracer=None) -> Pass:
    """Run every op once, timing it and recording its observable output."""
    result = Pass([], [], [], [], 0.0, 0)
    clock = hostspeed.HostClock(in_process=workload.name != "cli_cold")
    child_rss_kb = 0

    def attempt(i, op):
        try:
            if tracer is not None and workload.name != "cli_cold":
                return tracer.run_op(i + 1, op.kind, workload.run, op)
            return workload.run(op)
        except Exception as exc:  # an op that raises counts as failed
            return exc

    for i, op in enumerate(ops):
        out, raw, factor = clock.call(attempt, i, op)
        result.latencies.append(raw / factor)
        result.raw.append(raw)
        result.factors.append(factor)
        if isinstance(out, Exception):
            result.observed.append({"raised": repr(out)})
            continue
        if workload.name == "cli_cold":
            child_rss_kb = max(child_rss_kb, out[4].ru_maxrss)
            result.emitted += len(out[1]) + len(out[3] or b"")
        result.observed.append(workload.observe(op, out))
    self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb = child_rss_kb if workload.name == "cli_cold" else self_rss_kb
    result.rss_mb = rss_kb / 1024.0
    return result


def check(workload, ops, observed, expected):
    """Split failures into unexpected ones and documented known defects."""
    import reference
    unexpected, known = [], []
    for i, (op, obs) in enumerate(zip(ops, observed)):
        why = reference.close(obs, expected[i], path=f"op{i}.{op.kind}")
        if why:
            (known if op.known_defect else unexpected).append(
                {"op": i, "kind": op.kind, "why": why,
                 "known_defect": op.known_defect, "args": op.args})
    return unexpected, known


def tail(latencies):
    """(value, percentile, ops beyond) at the highest percentile that has
    at least ten ops beyond it; the maximum if there are ten ops or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def host_info():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def setup_probe(args, workdir):
    from workloads import spawn
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    out, err = workdir / "probe.out", workdir / "probe.err"
    code, _ = spawn(argv, dict(os.environ), out, err)
    if code != 0:
        raise SetupError(f"setup probe exited {code}: "
                         + err.read_text(errors="replace")[-400:])
    return json.loads(out.read_text().splitlines()[-1])["setup_s"]


def traced_pass(workload, ops, workdir, seed):
    """Set up and run the ops again with the tracer installed."""
    from tracer import Tracer
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        workload.setup(ops, workdir)
        traced = run_pass(workload, ops, tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_path, workload=workload.name, seed=seed)
    return tracer, traced, trace_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    try:
        workload, ops, setup0 = timed_setup(args.workload, args.seed,
                                            args.seconds, workdir)
    except ImportError as exc:
        raise SetupError(f"cannot import the package: {exc}") from exc
    if args.setup_probe:
        print(json.dumps({"setup_s": setup0}))
        return 0
    setups = [setup0] + [setup_probe(args, workdir)
                         for _ in range(SETUP_PROBES)]

    import reference
    timed = run_pass(workload, ops)
    expected = [workload.expect(op) for op in ops]
    unexpected, known = check(workload, ops, timed.observed, expected)

    latencies = timed.latencies
    wall = sum(latencies)
    work = sum(op.work for op in ops)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "work_per_s": work / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": timed.rss_mb,
    }
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "host": host_info(),
        "ops": len(ops), "work": work, "work_unit": workload.work_unit,
        "setup_samples_s": setups,
        "host_slowdown": _spread(timed.factors),
        "raw": {"wall_s": sum(timed.raw),
                "op_p50_ms": statistics.median(timed.raw) * 1e3,
                "op_tail_ms": tail(timed.raw)[0] * 1e3},
        "op_tail": {"percentile": tail_pct, "ops_beyond": beyond,
                    "ops": len(latencies)},
        "fail_frac": (len(unexpected) + len(known)) / len(ops),
        "unexpected_failures": unexpected[:5],
        "known_defect_failures": len(known),
        "known_defect_ops": sum(op.known_defect is not None for op in ops),
        "tolerance": {"rtol": reference.RTOL, "atol": reference.ATOL,
                      "optimum_v_rtol": reference.OPT_V_RTOL},
    }
    attempted, failed = len(ops), len(unexpected)
    units = dict(END_TO_END)
    result = {k: {"value": metrics[k], "unit": units[k]} for k, _ in END_TO_END}

    if args.trace:
        tracer, traced, trace_path = traced_pass(workload, ops, workdir,
                                                 args.seed)
        t_unexpected, t_known = check(workload, ops, traced.observed,
                                      expected)
        from tracer import layer_metrics
        layers = layer_metrics(tracer.stats, getattr(workload, "import_s", []),
                               traced.emitted)
        # busy times in reference-host seconds, like every other time
        factor = statistics.median(traced.factors)
        layers = {k: (v / factor if u == "s" else v, u)
                  for k, (v, u) in layers.items()}
        traced_wall = sum(traced.latencies)
        layers["bench.traced_wall_s"] = (traced_wall, "s")
        layers["bench.trace_overhead_s"] = (traced_wall - wall, "s")
        report.update(per_layer={k: {"value": v, "unit": u}
                                 for k, (v, u) in sorted(layers.items())},
                      traced_host_slowdown=_spread(traced.factors),
                      traced_unexpected_failures=t_unexpected[:5],
                      traced_known_defect_failures=len(t_known),
                      spans_kept=len(tracer.spans),
                      spans_dropped=tracer.dropped,
                      trace_file=str(trace_path.relative_to(ROOT)))
        failed += len(t_unexpected)
        result = {k: {"value": layers[k][0], "unit": layers[k][1]}
                  for k in PER_LAYER}

    for k, unit in END_TO_END:
        print(f"{k:<14} {metrics[k]:>14.6f} {unit}")
    print(f"{'fail_frac':<14} {report['fail_frac']:>14.6f} ratio "
          f"({len(known)} known-defect failures, {len(ops)} ops)")
    print(json.dumps({"report": report}, default=_plain))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}, default=_plain))
    return 0


def _spread(factors):
    return {"median": statistics.median(factors), "min": min(factors),
            "max": max(factors)}


def _plain(obj):
    tolist = getattr(obj, "tolist", None)
    if tolist is not None:
        return tolist()
    return repr(obj)


if __name__ == "__main__":
    sys.exit(main())
