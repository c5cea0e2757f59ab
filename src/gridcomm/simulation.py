"""Multi-agent voltage-control simulation on a partitioned network.

Three agent roles run a synchronous tick loop: bus agents (BA) watch their
own voltage, one community agent (CA) per community turns violation reports
into an adjustment LP over the violated nodes' DG subsets, and DG agents
(DA) apply the commanded setpoint changes. Every exchange is an explicit
Message and every message stays inside one community; the log is the proof
of locality.

Tick phases, all deterministic:

1. apply the scenario events due this tick (trips, restores, load steps,
   communication loss), re-solving the power flow and sensitivities if the
   electrical state changed, and re-organizing subsets in any community
   whose DG population changed;
2. BAs scan against the voltage band and report violations to their CA;
3. CAs, community id ascending, solve the max-min LP over the union of the
   violated nodes' subset DGs, or self-organize around exhausted DGs when
   the LP is infeasible;
4. DAs apply the commands, each clamped to its DG's capability range;
   the flow is re-solved once if any DA moved, and voltages are logged.

Violations are tracked as episodes: a bus entering the band closes the
episode it opened when it left. Run totals count episodes, not ticks.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .control import (
    ControlDirection,
    ControlProblem,
    CommunitySubsets,
    TransformerAngleRows,
    apply_adjustment,
    build_community_dg_matrix,
    capability_range,
    derive_subsets,
    formulate_lp,
    scan_voltage_limits,
    setpoint,
    solve_lp,
)
from .network import NetworkModel
from .network_io import read_element, read_value
from .partition import Partition
from .powerflow import PowerFlowError, PowerFlowOptions, PowerFlowSolution, solve_power_flow
from .sensitivity import SensitivityMatrix, SensitivityMode, compute_sensitivity_matrix

HEADROOM_TOL = 1e-9
# Linearization guard: the LP targets a band tightened by this much on the
# violated side so the nonlinear re-solve lands inside the true band.
LIN_GUARD = 2e-3


class AgentKind(str, Enum):
    BA = "BA"
    CA = "CA"
    DA = "DA"


@dataclass(frozen=True)
class AgentId:
    kind: AgentKind
    index: int

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.index}"


class MessageKind(str, Enum):
    VIOLATION_REPORT = "violation_report"
    ADJUSTMENT_COMMAND = "adjustment_command"
    TRIP_NOTICE = "trip_notice"
    RESTORE_NOTICE = "restore_notice"
    INFEASIBLE_NOTICE = "infeasible_notice"


@dataclass(frozen=True)
class Message:
    seq: int
    tick: int
    sender: AgentId
    receiver: AgentId
    kind: MessageKind
    payload: dict


class EventKind(str, Enum):
    DG_TRIP = "dg_trip"
    DG_RESTORE = "dg_restore"
    LOAD_CHANGE = "load_change"
    COMM_LOSS = "comm_loss"
    COMM_RESTORE = "comm_restore"


_DG_EVENTS = {EventKind.DG_TRIP, EventKind.DG_RESTORE, EventKind.COMM_LOSS, EventKind.COMM_RESTORE}


@dataclass(frozen=True)
class Event:
    at_tick: int
    kind: EventKind
    target: int
    magnitude: float | None = None


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    events: list[Event]
    duration: int
    name: str = "scenario"


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    unknown = set(raw) - {"events", "duration", "name"}
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    events_raw = raw.get("events", [])
    if not isinstance(events_raw, list):
        raise ScenarioError(f"{path}: 'events' must be a list")
    events: list[Event] = []
    for i, item in enumerate(events_raw):
        where = f"{path}: events[{i}]"
        ev = read_element(Event, item, where, ScenarioError)
        if ev.at_tick < 0:
            raise ScenarioError(f"{where} field 'at_tick' must be nonnegative, got {ev.at_tick}")
        if ev.kind is EventKind.LOAD_CHANGE:
            if ev.magnitude is None or not np.isfinite(ev.magnitude):
                raise ScenarioError(f"{where} field 'magnitude' must be a finite number on load_change, got {ev.magnitude}")
        elif ev.magnitude is not None:
            raise ScenarioError(f"{where} field 'magnitude' is not taken by {ev.kind.value}")
        events.append(ev)
    duration = raw.get("duration")
    if duration is None:
        duration = max((e.at_tick for e in events), default=-1) + 2
    elif read_value(int, duration, f"{path}: 'duration'", ScenarioError) < 1:
        raise ScenarioError(f"{path}: 'duration' must be at least 1, got {duration}")
    name = raw.get("name", path.stem)
    if not isinstance(name, str):
        raise ScenarioError(f"{path}: name must be a string")
    return Scenario(events=events, duration=duration, name=name)


def validate_scenario(scenario: Scenario, net: NetworkModel) -> None:
    """Check every event's target against the network; raises ScenarioError."""
    bus_ids = {b.id for b in net.buses}
    dg_ids = {d.id for d in net.dgs}
    for ev in scenario.events:
        if ev.kind in _DG_EVENTS and ev.target not in dg_ids:
            raise ScenarioError(f"event {ev.kind.value} targets unknown DG id {ev.target}")
        if ev.kind is EventKind.LOAD_CHANGE and ev.target not in bus_ids:
            raise ScenarioError(f"event load_change targets unknown bus id {ev.target}")
        if ev.at_tick >= scenario.duration:
            raise ScenarioError(
                f"event {ev.kind.value} at tick {ev.at_tick} never fires (duration {scenario.duration})"
            )


@dataclass
class ControlRecord:
    tick: int
    community: int
    direction: str
    feasible: bool
    objective: float | None
    dg_ids: list[int]
    adjustments: list[float]
    nodes: list[int]


class SimulationDiverged(RuntimeError):
    """The nonlinear flow stopped converging mid-run; state is attached."""

    def __init__(self, message: str, state: "SimulationState"):
        super().__init__(message)
        self.state = state


@dataclass
class SimulationState:
    net: NetworkModel
    partition: Partition
    sens: SensitivityMatrix
    pf: PowerFlowSolution
    mode: SensitivityMode
    v_limits: tuple[float, float]
    communities: list[int]
    nodes_of: dict[int, list[int]]  # community -> non-slack bus ids
    dgs_of: dict[int, list[int]]  # community -> all DG ids, online or not
    subsets: dict[int, CommunitySubsets]
    cap_range: dict[int, tuple[float, float]]  # DG id -> (lo, hi) of the mode's setpoint
    options: PowerFlowOptions
    tick: int = 0
    comm_lost: set[int] = field(default_factory=set)
    excluded: dict[int, set[int]] = field(default_factory=dict)
    degraded: set[int] = field(default_factory=set)
    messages: list[Message] = field(default_factory=list)
    events_applied: list[tuple[int, Event]] = field(default_factory=list)
    controls: list[ControlRecord] = field(default_factory=list)
    voltage_rows: list[tuple[int, int, float]] = field(default_factory=list)
    subset_rows: list[tuple] = field(default_factory=list)
    open_episode_since: dict[int, int] = field(default_factory=dict)
    violations_seen: int = 0
    violations_resolved: int = 0
    control_actions: int = 0
    regenerations: int = 0
    _seq: int = 0

    def community_of_dg(self, dg_id: int) -> int:
        return self.partition.community_of[self.net.dg_by_id(dg_id).bus]

    def send(self, sender: AgentId, receiver: AgentId, kind: MessageKind, payload: dict) -> None:
        self.messages.append(
            Message(seq=self._seq, tick=self.tick, sender=sender, receiver=receiver, kind=kind, payload=payload)
        )
        self._seq += 1


def initialize(
    net: NetworkModel,
    partition: Partition,
    sens: SensitivityMatrix,
    mode: SensitivityMode = SensitivityMode.VQ,
    v_limits: tuple[float, float] = (0.95, 1.05),
    options: PowerFlowOptions | None = None,
) -> SimulationState:
    """Stand up agents, subsets and capability ranges on a private copy of net."""
    net = copy.deepcopy(net)
    options = options or PowerFlowOptions()
    pf = solve_power_flow(net, options)
    if not pf.converged:
        raise PowerFlowError("cannot initialize simulation from a non-converging network")

    slack_id = net.slack_bus.id
    communities = sorted(set(partition.community_of.values()))
    nodes_of = {c: [] for c in communities}
    for bus_id in sorted(partition.community_of):
        if bus_id != slack_id:
            nodes_of[partition.community_of[bus_id]].append(bus_id)
    dgs_of = {c: [] for c in communities}
    for d in net.dgs_sorted():
        dgs_of[partition.community_of[d.bus]].append(d.id)

    state = SimulationState(
        net=net,
        partition=partition,
        sens=sens,
        pf=pf,
        mode=mode,
        v_limits=v_limits,
        communities=communities,
        nodes_of=nodes_of,
        dgs_of=dgs_of,
        subsets={},
        cap_range={d.id: capability_range(d, mode) for d in net.dgs_sorted()},
        options=options,
    )
    for c in communities:
        state.subsets[c] = _build_subsets(state, c, generation=0)
        _record_subsets(state, c)
    return state


def _available_dgs(state: SimulationState, community: int, exclude: Iterable[int] = ()) -> list[int]:
    banned = set(exclude)
    out = []
    for dg_id in state.dgs_of[community]:
        dg = state.net.dg_by_id(dg_id)
        if dg.online and dg_id not in state.comm_lost and dg_id not in banned:
            out.append(dg_id)
    return out


def _build_subsets(state: SimulationState, community: int, generation: int) -> CommunitySubsets:
    avail = _available_dgs(state, community, state.excluded.get(community, ()))
    nodes = state.nodes_of[community]
    if not avail or not nodes:
        state.degraded.add(community)
        return CommunitySubsets(community=community, subsets=[], generation=generation)
    state.degraded.discard(community)
    block = state.sens.voltage_block(state.mode)
    rows = [state.sens.row_of(b) for b in nodes]
    cols = [state.sens.row_of(state.net.dg_by_id(g).bus) for g in avail]
    d_com = build_community_dg_matrix(block[np.ix_(rows, cols)], nodes, avail)
    dg_bus_of = {g: state.net.dg_by_id(g).bus for g in avail}
    return derive_subsets(d_com, nodes, avail, dg_bus_of, community=community, generation=generation)


def _record_subsets(state: SimulationState, community: int) -> None:
    cs = state.subsets[community]
    if not cs.subsets:
        state.subset_rows.append((state.tick, community, cs.generation, "", "", ""))
        return
    for s in cs.subsets:
        state.subset_rows.append(
            (
                state.tick,
                community,
                cs.generation,
                s.anchor_dg,
                "|".join(str(g) for g in s.dg_ids),
                "|".join(str(n) for n in s.nodes),
            )
        )


def self_organize(state: SimulationState, community: int) -> None:
    """Rebuild a community's subsets from its currently reachable DGs and
    bump the generation counter."""
    gen = state.subsets[community].generation + 1
    state.subsets[community] = _build_subsets(state, community, generation=gen)
    state.regenerations += 1
    _record_subsets(state, community)
    if community in state.degraded:
        ca = AgentId(AgentKind.CA, community)
        state.send(ca, ca, MessageKind.INFEASIBLE_NOTICE, {"community": community, "reason": "no_available_dg"})


def _resolve(state: SimulationState, why: str) -> None:
    pf = solve_power_flow(state.net, state.options)
    if not pf.converged:
        raise SimulationDiverged(f"power flow diverged after {why} at tick {state.tick}", state)
    state.pf = pf
    state.sens = compute_sensitivity_matrix(state.net, pf)


def _apply_events(state: SimulationState, events: Sequence[Event]) -> tuple[bool, set[int]]:
    """Returns (electrical state changed, communities to re-organize)."""
    changed = False
    marks: set[int] = set()
    for ev in events:
        if ev.kind is EventKind.LOAD_CHANGE:
            bus = state.net.bus_by_id(ev.target)
            bus.p_load += float(ev.magnitude)
            changed = True
            state.events_applied.append((state.tick, ev))
            continue

        dg = state.net.dg_by_id(ev.target)
        community = state.partition.community_of[dg.bus]
        ca = AgentId(AgentKind.CA, community)
        da = AgentId(AgentKind.DA, dg.id)
        if ev.kind is EventKind.DG_TRIP:
            if dg.online:
                dg.online = False
                changed = True
                state.send(da, ca, MessageKind.TRIP_NOTICE, {"dg": dg.id})
                marks.add(community)
                state.excluded.pop(community, None)
        elif ev.kind is EventKind.DG_RESTORE:
            if not dg.online:
                dg.online = True
                changed = True
                state.send(da, ca, MessageKind.RESTORE_NOTICE, {"dg": dg.id})
                marks.add(community)
                state.excluded.pop(community, None)
        elif ev.kind is EventKind.COMM_LOSS:
            if dg.id not in state.comm_lost:
                state.comm_lost.add(dg.id)
                marks.add(community)
                state.excluded.pop(community, None)
        elif ev.kind is EventKind.COMM_RESTORE:
            if dg.id in state.comm_lost:
                state.comm_lost.discard(dg.id)
                marks.add(community)
                state.excluded.pop(community, None)
        state.events_applied.append((state.tick, ev))
    return changed, marks


def _update_episodes(state: SimulationState, violating: set[int]) -> None:
    for bus in sorted(violating - set(state.open_episode_since)):
        state.open_episode_since[bus] = state.tick
        state.violations_seen += 1
    for bus in sorted(set(state.open_episode_since) - violating):
        del state.open_episode_since[bus]
        state.violations_resolved += 1


def _direction_for(state: SimulationState, buses: list[int]) -> ControlDirection:
    v_min, v_max = state.v_limits
    worst_over = max((state.pf.v_of(b) - v_max for b in buses), default=0.0)
    worst_under = max((v_min - state.pf.v_of(b) for b in buses), default=0.0)
    return ControlDirection.OVERVOLTAGE if worst_over >= worst_under else ControlDirection.UNDERVOLTAGE


def _headroom(state: SimulationState, dg_id: int, direction: ControlDirection) -> float:
    now = setpoint(state.net.dg_by_id(dg_id), state.mode)
    lo, hi = state.cap_range[dg_id]
    return now - lo if direction is ControlDirection.OVERVOLTAGE else hi - now


def _transformer_rows(state: SimulationState, community: int, dg_buses: list[int]) -> list[TransformerAngleRows]:
    rows = []
    cols = [state.sens.row_of(b) for b in dg_buses]
    idx = {b.id: i for i, b in enumerate(state.net.buses)}
    for t in state.net.transformers:
        if (
            state.partition.community_of.get(t.primary_bus) != community
            and state.partition.community_of.get(t.secondary_bus) != community
        ):
            continue
        p_row = state.sens.angle_row(t.primary_bus, state.mode)[cols] if cols else np.zeros(0)
        s_row = state.sens.angle_row(t.secondary_bus, state.mode)[cols] if cols else np.zeros(0)
        rows.append(
            TransformerAngleRows(
                label=f"{t.primary_bus}->{t.secondary_bus}",
                theta_p0=float(state.pf.v_ang[idx[t.primary_bus]]),
                theta_s0=float(state.pf.v_ang[idx[t.secondary_bus]]),
                theta_shift=t.phase_shift,
                p_row=np.asarray(p_row, dtype=float),
                s_row=np.asarray(s_row, dtype=float),
            )
        )
    return rows


def _control_community(state: SimulationState, community: int, violated: list[int]) -> dict[int, float]:
    """One CA's decision for this tick; returns the adjustments to apply."""
    ca = AgentId(AgentKind.CA, community)
    direction = _direction_for(state, violated)
    subsets = state.subsets[community]

    chosen: set[int] = set()
    for bus in violated:
        s = subsets.subset_of(bus)
        if s is None:
            # A node outside every subset (stale generation) falls back to
            # the whole community's subset DG pool.
            for sub in subsets.subsets:
                chosen.update(sub.dg_ids)
        else:
            chosen.update(s.dg_ids)
    avail = set(_available_dgs(state, community, state.excluded.get(community, ())))
    dg_ids = sorted(chosen & avail)

    if not dg_ids:
        state.send(
            ca, ca, MessageKind.INFEASIBLE_NOTICE,
            {"community": community, "reason": "no_available_dg", "nodes": violated},
        )
        state.controls.append(
            ControlRecord(state.tick, community, direction.value, False, None, [], [], violated)
        )
        return {}

    nodes = state.nodes_of[community]
    mode = state.mode
    block = state.sens.voltage_block(mode)
    rows = [state.sens.row_of(b) for b in nodes]
    dg_buses = [state.net.dg_by_id(g).bus for g in dg_ids]
    cols = [state.sens.row_of(b) for b in dg_buses]
    v0 = np.array([state.pf.v_of(b) for b in nodes])
    v_sens = block[np.ix_(rows, cols)]

    now = np.array([setpoint(state.net.dg_by_id(g), mode) for g in dg_ids])
    lo, hi = np.array([state.cap_range[g] for g in dg_ids]).T

    v_min, v_max = state.v_limits
    if direction is ControlDirection.OVERVOLTAGE:
        v_max = v_max - LIN_GUARD
    else:
        v_min = v_min + LIN_GUARD

    try:
        problem = ControlProblem(
            direction=direction,
            mode=mode,
            dg_ids=dg_ids,
            node_ids=list(nodes),
            v0=v0,
            v_sens=v_sens,
            x_lower=lo - now,
            x_upper=hi - now,
            transformers=_transformer_rows(state, community, dg_buses),
            v_min=v_min,
            v_max=v_max,
        )
    except ValueError as exc:
        # Active-power control cannot raise voltages; log and leave the
        # episode open rather than abort the run.
        state.send(
            ca, ca, MessageKind.INFEASIBLE_NOTICE,
            {"community": community, "reason": str(exc), "nodes": violated},
        )
        state.controls.append(
            ControlRecord(state.tick, community, direction.value, False, None, dg_ids, [], violated)
        )
        return {}

    solution = solve_lp(formulate_lp(problem))

    if not solution.feasible:
        exhausted = {g for g in dg_ids if _headroom(state, g, direction) <= HEADROOM_TOL}
        already = state.excluded.setdefault(community, set())
        new = exhausted - already
        reason = "exhausted_dg" if new else "no_feasible_adjustment"
        state.send(
            ca, ca, MessageKind.INFEASIBLE_NOTICE,
            {"community": community, "reason": reason, "nodes": violated,
             "exhausted": sorted(exhausted)},
        )
        state.controls.append(
            ControlRecord(state.tick, community, direction.value, False, None, dg_ids, [], violated)
        )
        if new:
            already.update(new)
            self_organize(state, community)
        return {}

    pending: dict[int, float] = {}
    for g, xi in zip(dg_ids, solution.x):
        if abs(xi) > 1e-12:
            state.send(
                ca, AgentId(AgentKind.DA, g), MessageKind.ADJUSTMENT_COMMAND,
                {"dg": g, "x": float(xi)},
            )
            pending[g] = float(xi)
    state.controls.append(
        ControlRecord(
            state.tick, community, direction.value, True,
            solution.objective, dg_ids, [float(v) for v in solution.x], violated,
        )
    )
    return pending


def step(state: SimulationState, events: Sequence[Event] = ()) -> SimulationState:
    """Advance one tick; mutates and returns state."""
    changed, marks = _apply_events(state, events)
    if changed:
        _resolve(state, "scenario events")
    for c in sorted(marks):
        self_organize(state, c)

    v_min, v_max = state.v_limits
    violations = scan_voltage_limits(state.pf, v_min, v_max)
    _update_episodes(state, {v.bus for v in violations})

    by_community: dict[int, list[int]] = {}
    for v in violations:
        c = state.partition.community_of[v.bus]
        by_community.setdefault(c, []).append(v.bus)
        state.send(
            AgentId(AgentKind.BA, v.bus), AgentId(AgentKind.CA, c),
            MessageKind.VIOLATION_REPORT, {"bus": v.bus, "v": v.v_mag, "side": v.side},
        )

    pending: dict[int, float] = {}
    for c in sorted(by_community):
        pending.update(_control_community(state, c, sorted(by_community[c])))

    if pending:
        for g in sorted(pending):
            apply_adjustment(state.net.dg_by_id(g), state.mode, pending[g], *state.cap_range[g])
            state.control_actions += 1
        _resolve(state, "control adjustments")

    for i, bus_id in enumerate(state.pf.bus_ids):
        state.voltage_rows.append((state.tick, bus_id, float(state.pf.v_mag[i])))
    final = scan_voltage_limits(state.pf, v_min, v_max)
    _update_episodes(state, {v.bus for v in final})

    state.tick += 1
    return state


@dataclass
class RunReport:
    scenario: str
    duration: int
    violations: int
    resolved: int
    unresolved: int
    actions: int
    regenerations: int
    partition: Partition
    events: list[tuple[int, Event]]
    controls: list[ControlRecord]
    voltage_rows: list[tuple[int, int, float]]
    subset_rows: list[tuple]
    messages: list[Message]
    final_state: SimulationState

    def summary(self) -> str:
        return (
            f"violations:{self.violations} resolved:{self.resolved} "
            f"unresolved:{self.unresolved} actions:{self.actions} "
            f"regenerations:{self.regenerations}"
        )


def run_scenario(
    net: NetworkModel,
    scenario: Scenario,
    partition: Partition,
    sens: SensitivityMatrix,
    mode: SensitivityMode = SensitivityMode.VQ,
    v_limits: tuple[float, float] = (0.95, 1.05),
    options: PowerFlowOptions | None = None,
) -> RunReport:
    """Drive the tick loop over a scenario and collect the run's records."""
    validate_scenario(scenario, net)
    state = initialize(net, partition, sens, mode=mode, v_limits=v_limits, options=options)
    by_tick: dict[int, list[Event]] = {}
    for ev in scenario.events:
        by_tick.setdefault(ev.at_tick, []).append(ev)
    for t in range(scenario.duration):
        step(state, by_tick.get(t, ()))
    return RunReport(
        scenario=scenario.name,
        duration=scenario.duration,
        violations=state.violations_seen,
        resolved=state.violations_resolved,
        unresolved=len(state.open_episode_since),
        actions=state.control_actions,
        regenerations=state.regenerations,
        partition=state.partition,
        events=state.events_applied,
        controls=state.controls,
        voltage_rows=state.voltage_rows,
        subset_rows=state.subset_rows,
        messages=state.messages,
        final_state=state,
    )


def _payload_str(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_report(report: RunReport, out_dir: str | Path) -> None:
    """Write the run's CSV logs; output is a pure function of the run."""
    import csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def writer(name: str):
        f = open(out / name, "w", newline="")
        return f, csv.writer(f, lineterminator="\n")

    f, w = writer("events.csv")
    with f:
        w.writerow(["tick", "kind", "target", "magnitude"])
        for tick, ev in report.events:
            w.writerow([tick, ev.kind.value, ev.target, "" if ev.magnitude is None else repr(ev.magnitude)])

    f, w = writer("controls.csv")
    with f:
        w.writerow(["tick", "community", "direction", "feasible", "objective", "dgs", "adjustments", "nodes"])
        for r in report.controls:
            w.writerow(
                [
                    r.tick,
                    r.community,
                    r.direction,
                    int(r.feasible),
                    "" if r.objective is None else repr(r.objective),
                    "|".join(str(g) for g in r.dg_ids),
                    "|".join(repr(x) for x in r.adjustments),
                    "|".join(str(n) for n in r.nodes),
                ]
            )

    f, w = writer("voltages.csv")
    with f:
        w.writerow(["tick", "bus", "v_mag"])
        for tick, bus, v in report.voltage_rows:
            w.writerow([tick, bus, repr(v)])

    f, w = writer("subsets_history.csv")
    with f:
        w.writerow(["tick", "community", "generation", "anchor_dg", "dgs", "nodes"])
        for row in report.subset_rows:
            w.writerow(list(row))

    f, w = writer("messages.csv")
    with f:
        w.writerow(["seq", "tick", "sender", "receiver", "kind", "payload"])
        for m in report.messages:
            w.writerow([m.seq, m.tick, str(m.sender), str(m.receiver), m.kind.value, _payload_str(m.payload)])

    (out / "summary.txt").write_text(report.summary() + "\n")
