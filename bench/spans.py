"""Spans and counts for the traced run, recorded from outside the program.

`Tracer.installed` replaces public functions at the module names the program
calls them through (for example `gridcomm.simulation.solve_power_flow`) with
wrappers that record a span per call: name, start, end, parent span and the
operation it belongs to. Spans stay in memory until the run ends. Counts that
need the call's arguments or result are taken inside the span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import time
from contextlib import contextmanager

# (module the program calls through, attribute, span name)
TARGETS = [
    ("gridcomm.cli", "load_network", "network_io.load_network"),
    ("gridcomm.cli", "load_scenario", "simulation.load_scenario"),
    ("gridcomm.cli", "solve_power_flow", "powerflow.solve_power_flow"),
    ("gridcomm.cli", "compute_sensitivity_matrix", "sensitivity.compute_sensitivity_matrix"),
    ("gridcomm.cli", "partition_network", "partition.partition_network"),
    ("gridcomm.cli", "run_scenario", "simulation.run_scenario"),
    ("gridcomm.cli", "write_report", "simulation.write_report"),
    ("gridcomm.synthetic", "generate_synthetic_network", "synthetic.generate_synthetic_network"),
    ("gridcomm.powerflow", "build_ybus", "powerflow.build_ybus"),
    ("gridcomm.sensitivity", "build_ybus", "powerflow.build_ybus"),
    ("gridcomm.partition", "greedy_partition", "partition.greedy_partition"),
    ("gridcomm.simulation", "initialize", "simulation.initialize"),
    ("gridcomm.simulation", "step", "simulation.step"),
    ("gridcomm.simulation", "self_organize", "simulation.self_organize"),
    ("gridcomm.simulation", "write_report", "simulation.write_report"),
    ("gridcomm.simulation", "solve_power_flow", "powerflow.solve_power_flow"),
    ("gridcomm.simulation", "compute_sensitivity_matrix", "sensitivity.compute_sensitivity_matrix"),
    ("gridcomm.simulation", "derive_subsets", "control.derive_subsets"),
    ("gridcomm.simulation", "formulate_lp", "control.formulate_lp"),
    ("gridcomm.simulation", "solve_lp", "control.solve_lp"),
    ("gridcomm.control", "solve_inequality_lp", "simplex.solve_inequality_lp"),
]

# per-layer metric -> (span name, statistic): the median duration in "ms" or
# "s", or the median self time in ms ("self_ms").
TIMED = {
    "network_io.load_ms": ("network_io.load_network", "ms"),
    "simulation.load_scenario_ms": ("simulation.load_scenario", "ms"),
    "synthetic.generate_ms": ("synthetic.generate_synthetic_network", "ms"),
    "powerflow.solve_ms": ("powerflow.solve_power_flow", "ms"),
    "powerflow.ybus_ms": ("powerflow.build_ybus", "ms"),
    "sensitivity.compute_ms": ("sensitivity.compute_sensitivity_matrix", "ms"),
    "partition.network_s": ("partition.partition_network", "s"),
    "partition.greedy_s": ("partition.greedy_partition", "s"),
    "control.subsets_ms": ("control.derive_subsets", "ms"),
    "control.formulate_ms": ("control.formulate_lp", "ms"),
    "control.solve_lp_ms": ("control.solve_lp", "ms"),
    "simplex.solve_ms": ("simplex.solve_inequality_lp", "ms"),
    "simulation.initialize_ms": ("simulation.initialize", "ms"),
    "simulation.step_self_ms": ("simulation.step", "self_ms"),
    "simulation.self_organize_ms": ("simulation.self_organize", "ms"),
    "simulation.write_report_ms": ("simulation.write_report", "ms"),
    "cli.main_self_ms": ("cli.main", "self_ms"),
}


def _inputs_key(net) -> bytes:
    """What a power flow depends on that a scenario can change."""
    values = [(b.p_load, b.q_load) for b in net.buses] + [(d.p_out, d.q_out, d.online) for d in net.dgs]
    return hashlib.sha1(repr(values).encode()).digest()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = 0
        self.newton_iters: list[int] = []
        self.repeat_solves = 0
        self.repeat_computes = 0
        self.lps = 0
        self.lps_infeasible = 0
        self.lp_rows: list[int] = []
        self.lp_records: dict[bytes, tuple] = {}  # distinct LPs for the HiGHS check
        self.messages = 0
        self._last_solve = None
        self._last_compute = None

    # -- spans

    def new_op(self) -> None:
        """Start a new operation; repeats are only counted within one."""
        self.op += 1

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers

    def _count(self, name: str, args, result) -> None:
        if name == "powerflow.solve_power_flow":
            self.newton_iters.append(result.iterations)
            key = (self.op, _inputs_key(args[0]))
            self.repeat_solves += key == self._last_solve
            self._last_solve = key
        elif name == "sensitivity.compute_sensitivity_matrix":
            key = (self.op, args[1].v_mag.tobytes() + args[1].v_ang.tobytes())
            self.repeat_computes += key == self._last_compute
            self._last_compute = key
        elif name == "control.solve_lp":
            self.lps += 1
            self.lps_infeasible += not result.feasible
        elif name == "simplex.solve_inequality_lp":
            c, a, b = args[:3]
            self.lp_rows.append(len(b))
            key = hashlib.sha1(c.tobytes() + a.tobytes() + b.tobytes()).digest()
            if key not in self.lp_records:
                feasible = result.status.value == "optimal"
                self.lp_records[key] = (c.copy(), a.copy(), b.copy(), feasible, result.objective)

    def _wrap(self, name: str, fn):
        counted = name in (
            "powerflow.solve_power_flow",
            "sensitivity.compute_sensitivity_matrix",
            "control.solve_lp",
            "simplex.solve_inequality_lp",
        )
        if name == "simulation.step":

            @functools.wraps(fn)
            def traced_step(state, *args, **kwargs):
                idx = self._open(name)
                before = len(state.messages)
                try:
                    return fn(state, *args, **kwargs)
                finally:
                    self.messages += len(state.messages) - before
                    self._close(idx)

            return traced_step

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counted:
                    self._count(name, args, result)
                return result
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TARGETS function for the duration of the block."""
        saved = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- per-layer figures

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span never overlap: the program is single-threaded)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def nesting_problems(self) -> list[str]:
        """Spans that end before they start, leave their parent's interval or
        overlap an earlier sibling. Without any, every self time is at least
        0 and a span's duration is its children's time plus its self time."""
        problems = []
        last_end: dict[int, float] = {}  # parent -> end of its latest child so far
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} ({name}) ends before it starts")
            if parent is None:
                continue
            p_name, p_start, p_end = self.spans[parent][:3]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) leaves its parent span {parent} ({p_name})")
            if start < last_end.get(parent, start):
                problems.append(f"span {i} ({name}) overlaps an earlier child of span {parent} ({p_name})")
            last_end[parent] = end
        return problems[:5]

    def step_accounting(self) -> dict:
        """Traced tick time, the time of the step spans' direct children, and
        the rest (step self time)."""
        steps = {i for i, s in enumerate(self.spans) if s[0] == "simulation.step"}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in steps)
        children = sum(end - start for _, start, end, parent, _ in self.spans if parent in steps)
        return {"tick_ms": 1e3 * total, "children_ms": 1e3 * children, "self_ms": 1e3 * (total - children)}

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        own = self.self_times()
        by_name: dict[str, list[float]] = {}
        self_by_name: dict[str, list[float]] = {}
        in_step: dict[int, bool] = {}
        solves_in_steps = steps = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            by_name.setdefault(name, []).append(end - start)
            self_by_name.setdefault(name, []).append(own[i])
            in_step[i] = name == "simulation.step" or (parent is not None and in_step[parent])
            steps += name == "simulation.step"
            solves_in_steps += name == "powerflow.solve_power_flow" and in_step[i]

        def med(values: list[float]) -> float:
            return statistics.median(values) if values else 0.0

        out: dict[str, tuple[float, str]] = {}
        for metric, (span, stat) in TIMED.items():
            if stat == "self_ms":
                out[metric] = (1e3 * med(self_by_name.get(span, [])), "ms")
            else:
                scale = 1e3 if stat == "ms" else 1.0
                out[metric] = (scale * med(by_name.get(span, [])), stat)
        out["powerflow.newton_iters"] = (float(med(self.newton_iters)), "iterations")
        out["powerflow.solves_per_tick"] = (solves_in_steps / steps if steps else 0.0, "solves/tick")
        out["powerflow.repeat_solves"] = (self.repeat_solves, "count")
        out["sensitivity.repeat_computes"] = (self.repeat_computes, "count")
        out["control.lps"] = (self.lps, "count")
        out["control.lps_infeasible"] = (self.lps_infeasible, "count")
        out["simplex.rows"] = (statistics.fmean(self.lp_rows) if self.lp_rows else 0.0, "rows")
        out["simulation.messages"] = (self.messages, "count")
        return out
