"""Outside-in tracer: timing wrappers around the package's public functions.

``Tracer.install()`` replaces every public module-level function of the
traced layers with a wrapper, both where it is defined (``aeropower.
induced_velocity``, looked up by callers at call time) and wherever another
module bound it with ``from ... import`` (``cli.config_from_mapping``).
The package source is not touched; ``uninstall()`` restores the originals.

Each call becomes a span (id, parent id, op id, name, start, end). Self time
is computed when the span closes, as its duration minus the time covered by
its child spans, and added to per-function totals with the call count, the
number of calls that raised and the number whose result an observer flagged.
Span records are kept in memory up to a cap and written out at the end; the
totals always cover every call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time

PACKAGE = "mobilitylab"
#: package modules whose public functions are wrapped
LAYERS = ("params", "aeropower", "control", "steadystate", "dynamics",
          "rangeopt", "thermal", "cli")

#: functions whose result is inspected: a true observer result is counted
OBSERVERS = {
    "control.saturate_pair_forces":
        lambda result: isinstance(result, tuple) and bool(result[1]),
}

#: span records kept per process; later spans only update the totals
SPAN_CAP = 50_000

CALLS, TOTAL_S, SELF_S, RAISED, FLAGGED = range(5)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        observe = OBSERVERS.get(name)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, \
            time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[RAISED] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[CALLS] += 1
                stats[TOTAL_S] += dur
                stats[SELF_S] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent, tracer.op_id, name, t0, t1))
                else:
                    tracer.dropped += 1
            if observe is not None and observe(result):
                stats[FLAGGED] += 1
            return result

        return traced

    # -- ops ----------------------------------------------------------------
    def run_op(self, op_id: int, label: str, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op_id``."""
        self.op_id = op_id
        return self._wrap(f"op.{label}", fn)(*args)

    # -- output -------------------------------------------------------------
    def merge(self, data: dict) -> None:
        """Add the totals and spans another process wrote with ``dump``."""
        for name, row in data["stats"].items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for k, value in enumerate(row):
                mine[k] += value
        room = max(0, SPAN_CAP - len(self.spans))
        self.spans.extend(tuple(s) for s in data["spans"][:room])
        self.dropped += data["dropped"] + max(0, len(data["spans"]) - room)

    def dump(self) -> dict:
        return {"stats": self.stats, "spans": [list(s) for s in self.spans],
                "dropped": self.dropped}

    def write(self, path, **header) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "span_fields": ["id", "parent", "op", "name",
                                                 "start_s", "end_s"],
                       **self.dump()}, fh)


def _get(stats, name, field):
    row = stats.get(name)
    return row[field] if row else 0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats: dict, cli_import_s: list[float],
                  cli_emit_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the tracer's totals."""
    def calls(name):
        return _get(stats, name, CALLS)

    def self_s(name):
        return _get(stats, name, SELF_S)

    ticks = calls("dynamics.step_rolling")
    points = (calls("steadystate.rolling_equilibrium")
              + calls("steadystate.flying_equilibrium") + ticks)
    equilibria = ("steadystate.rolling_equilibrium",
                  "steadystate.flying_equilibrium")
    cli_import_s = sorted(cli_import_s)
    m = {
        "aeropower.induced_velocity.calls":
            (calls("aeropower.induced_velocity"), "count"),
        "aeropower.induced_velocity.self_s":
            (self_s("aeropower.induced_velocity"), "s"),
        "aeropower.induced_velocity.calls_per_point":
            (_ratio(calls("aeropower.induced_velocity"), points), "ratio"),
        "aeropower.rotor_power.calls": (calls("aeropower.rotor_power"), "count"),
        "steadystate.infeasible_frac":
            (_ratio(sum(_get(stats, n, RAISED) for n in equilibria),
                    sum(calls(n) for n in equilibria)), "ratio"),
        "rangeopt.range_sweep.calls": (calls("rangeopt.range_sweep"), "count"),
        "control.mixer_matrix.calls": (calls("control.mixer_matrix"), "count"),
        "control.saturated_frac":
            (_ratio(_get(stats, "control.saturate_pair_forces", FLAGGED),
                    calls("control.saturate_pair_forces")), "ratio"),
        "dynamics.rolling_electrical_power.calls_per_tick":
            (_ratio(calls("dynamics.rolling_electrical_power"), ticks), "ratio"),
        "dynamics.step_rolling.calls": (ticks, "count"),
        "params.config_from_mapping.calls":
            (calls("params.config_from_mapping"), "count"),
        "cli.import_s": (cli_import_s[len(cli_import_s) // 2]
                         if cli_import_s else 0.0, "s"),
        "cli.emit_bytes": (cli_emit_bytes, "B"),
    }
    for name in equilibria:
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("steadystate.rolling_equilibrium",
                 "steadystate.flying_equilibrium",
                 "rangeopt.range_sweep", "rangeopt.tradeoff_grid",
                 "rangeopt.scaling_bounds", "control.allocate",
                 "control.pi_rate_control", "dynamics.simulate_closed_loop",
                 "dynamics.step_rolling", "dynamics.rolling_electrical_power",
                 "params.config_from_mapping", "params.load_config",
                 "cli.main", "thermal.sizing_table"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    return m
