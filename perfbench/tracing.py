"""Span tracing of the package's layers, from outside the package.

`install` replaces, in the loaded `uavloc` modules, the names that callers
look up (for example `uavloc.mission.sample_toa`, which mission.py imported
by name) with wrappers that record a span per call: name, start, end, parent
span and operation id, plus a small `info` value where a counter needs one.
Nothing under src/ changes, and only a traced process installs the wrappers.
Spans stay in memory until `write` dumps them as JSON lines.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module owning the looked-up name, attribute, span name). A span's layer is
# the part of its name before the first dot.
WRAPPED = [
    ("mission", "run_mission", "mission.run_mission"),
    ("mission", "validate_scenario", "model.validate_scenario"),
    ("mission", "sample_gps", "channel.sample_gps"),
    ("mission", "is_blocked", "channel.is_blocked"),
    ("mission", "sample_toa", "channel.sample_toa"),
    ("mission", "estimate_toa_nr", "nrtiming.estimate_toa_nr"),
    ("mission", "accumulate", "fim.accumulate"),
    ("mission", "crb_trace", "fim.crb_trace"),
    ("mission", "step_contribution", "fim.step_contribution"),
    ("mission", "next_waypoint", "planner.next_waypoint"),
    ("planner", "next_waypoint", "planner.next_waypoint"),
    ("planner", "greedy_cost", "planner.greedy_cost"),
    ("planner", "step_contribution", "fim.step_contribution"),
    ("planner", "improvement_matrix", "fim.improvement_matrix"),
    ("slam", "solve_slam", "slam.solve_slam"),
    ("slam", "initial_state", "slam.initial_state"),
    ("slam", "objective_terms", "slam.objective_terms"),
    ("slam", "assemble_normal_equations", "slam.assemble_normal_equations"),
    ("slam", "gauss_newton_step", "slam.gauss_newton_step"),
    ("iofiles", "read_measurement_log", "iofiles.read_measurement_log"),
]

LAYERS = ("mission", "model", "channel", "nrtiming", "slam", "fim", "planner", "iofiles")


def _span_info(name, args, result, exc):
    """The one value a counter needs from a call, or None."""
    if name == "slam.gauss_newton_step":
        return len(args[0].b)
    if name == "slam.solve_slam":
        report = result[1] if exc is None else getattr(exc, "report", None)
        if report is None:
            return None
        return [report.iterations, len(report.objective_trace) - 1, report.converged]
    if exc is not None:
        return None
    if name == "channel.is_blocked":
        return bool(result)
    if name == "planner.greedy_cost":
        return bool(np.isfinite(result))
    if name == "iofiles.read_measurement_log":
        return len(result)
    if name == "mission.run_mission":
        return len(result.retained_steps)
    return None


class Tracer:
    """In-memory span recorder. A span is
    [name, start, end, parent index or -1, op id, info]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1

    def wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                span[5] = _span_info(name, args, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            span[5] = _span_info(name, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every name in WRAPPED; returns an undo list."""
        undo = []
        for mod_name, attr, span_name in WRAPPED:
            mod = importlib.import_module(f"uavloc.{mod_name}")
            original = getattr(mod, attr)
            undo.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, span_name))
        return undo

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, op, info in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "info": info}))
                f.write("\n")


def uninstall(undo):
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def layer_metrics(spans, num_ops, op_time_s, slowness=1.0):
    """Per-layer counters and times from the spans of `num_ops` operations
    that took `op_time_s` seconds in total. Times and counts are per
    operation, times divided by the host's `slowness` as the end-to-end ones
    are; `<layer>.self_share` is the layer's self time over op time."""
    dur = np.array([s[2] - s[1] for s in spans]) / slowness if spans else np.zeros(0)
    op_time_s /= slowness
    child = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_time = dur - child

    total = defaultdict(float)
    calls = defaultdict(int)
    self_by_layer = defaultdict(float)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        calls[s[0]] += 1
        self_by_layer[s[0].split(".")[0]] += self_time[i]
    info = defaultdict(list)
    for s in spans:
        if s[5] is not None:
            info[s[0]].append(s[5])

    def per_op(x):
        return x / num_ops

    solves = info["slam.solve_slam"]
    lin_dims = np.array(info["slam.gauss_newton_step"], dtype=float)
    accepted = sum(s[1] for s in solves)
    costs = info["planner.greedy_cost"]
    # a query falls back when every greedy_cost it made was -inf
    evaluated = defaultdict(list)
    for s in spans:
        if s[0] == "planner.greedy_cost" and s[3] >= 0:
            evaluated[s[3]].append(s[5])
    fallbacks = sum(1 for i, s in enumerate(spans)
                    if s[0] == "planner.next_waypoint" and not any(evaluated.get(i, [])))

    m = {
        "slam.solves": per_op(calls["slam.solve_slam"]),
        "slam.solve_s": per_op(total["slam.solve_slam"]),
        "slam.lm_iters": per_op(sum(s[0] for s in solves)),
        "slam.lin_solves": per_op(calls["slam.gauss_newton_step"]),
        "slam.lin_solve_s": per_op(total["slam.gauss_newton_step"]),
        "slam.step_accept_ratio": accepted / len(lin_dims) if len(lin_dims) else 0.0,
        "slam.assemble_s": per_op(total["slam.assemble_normal_equations"]),
        "slam.objective_evals": per_op(calls["slam.objective_terms"]),
        "slam.objective_s": per_op(total["slam.objective_terms"]),
        "slam.max_dim": float(lin_dims.max()) if len(lin_dims) else 0.0,
        "slam.chol_flops": per_op(float(np.sum(lin_dims ** 3) / 3.0)),
        "slam.nonconverged": per_op(sum(1 for s in solves if not s[2])),
        "fim.improvement_calls": per_op(calls["fim.improvement_matrix"]),
        "fim.improvement_s": per_op(total["fim.improvement_matrix"]),
        "fim.step_contribution_s": per_op(total["fim.step_contribution"]),
        "fim.accumulate_calls": per_op(calls["fim.accumulate"]),
        "fim.crb_trace_calls": per_op(calls["fim.crb_trace"]),
        "fim.crb_trace_s": per_op(total["fim.crb_trace"]),
        "planner.queries": per_op(calls["planner.next_waypoint"]),
        "planner.next_waypoint_s": per_op(total["planner.next_waypoint"]),
        "planner.greedy_cost_calls": per_op(calls["planner.greedy_cost"]),
        "planner.feasible_ratio": sum(costs) / len(costs) if costs else 0.0,
        "planner.fallbacks": per_op(fallbacks),
        "channel.sample_toa_calls": per_op(calls["channel.sample_toa"]),
        "channel.sample_toa_s": per_op(total["channel.sample_toa"]),
        "channel.is_blocked_s": per_op(total["channel.is_blocked"]),
        "channel.blocked_links": per_op(sum(info["channel.is_blocked"])),
        "nrtiming.estimate_calls": per_op(calls["nrtiming.estimate_toa_nr"]),
        "nrtiming.estimate_s": per_op(total["nrtiming.estimate_toa_nr"]),
        "iofiles.read_log_s": per_op(total["iofiles.read_measurement_log"]),
        "iofiles.rows": per_op(sum(info["iofiles.read_measurement_log"])),
        "mission.run_s": per_op(total["mission.run_mission"]),
        "mission.self_s": per_op(self_by_layer["mission"]),
        "mission.retained": per_op(sum(info["mission.run_mission"])),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = self_by_layer[layer] / op_time_s if op_time_s else 0.0
    return m
