"""Multi-agent voltage-control simulation on a partitioned network.

Three agent roles run a synchronous tick loop: bus agents (BA) watch their
own voltage, one community agent (CA) per community turns violation reports
into an adjustment LP over the violated nodes' DG subsets, and DG agents
(DA) apply the commanded setpoint changes. Every exchange is an explicit
Message and every message stays inside one community; the log is the proof
of locality.

A CA decides from its CommunityView alone: its own non-slack buses and their
voltages, its available DGs with their setpoints and ranges, the voltage
sensitivities between the two, and the angle rows of the transformers
touching it. Only `_view` (and `initialize`) read the network-wide flow and
sensitivities. The view is a slice of the global Jacobian inverse, so how
the rest of the network responds to a DG move (the boundary) comes from the
global factor, not from a model of the community alone.

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
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .control import (
    ControlDirection,
    ControlProblem,
    CommunitySubsets,
    TransformerAngleRows,
    apply_adjustment,
    capability_range,
    derive_subsets,
    formulate_lp,
    scan_voltage_limits,
    setpoint,
    solve_lp,
)
from .network import NetworkModel
from .network_io import joined, load_json, read_element, read_value, write_table
from .partition import Partition, build_dg_adjacency
from .powerflow import PowerFlowSolution, solve_power_flow
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


# DG event -> (whether it switches the DG's power or its link to the CA,
# the state it leaves that switch in)
_DG_TOGGLES = {
    EventKind.DG_TRIP: (True, False),
    EventKind.DG_RESTORE: (True, True),
    EventKind.COMM_LOSS: (False, False),
    EventKind.COMM_RESTORE: (False, True),
}


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
    raw = load_json(path, ScenarioError)
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
    slack_id = net.slack_bus.id
    for ev in scenario.events:
        if ev.kind in _DG_TOGGLES and ev.target not in dg_ids:
            raise ScenarioError(f"event {ev.kind.value} targets unknown DG id {ev.target}")
        if ev.kind is EventKind.LOAD_CHANGE and ev.target not in bus_ids:
            raise ScenarioError(f"event load_change targets unknown bus id {ev.target}")
        if ev.kind is EventKind.LOAD_CHANGE and ev.target == slack_id:
            raise ScenarioError(
                f"event load_change at tick {ev.at_tick} targets slack bus {ev.target}, where it moves no voltage"
            )
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
    sens: SensitivityMatrix  # and, as sens.pf, the flow it was taken at
    mode: SensitivityMode
    v_limits: tuple[float, float]
    nodes_of: dict[int, list[int]]  # community -> non-slack bus ids, community id ascending
    subsets: dict[int, CommunitySubsets]
    cap_range: dict[int, tuple[float, float]]  # DG id -> (lo, hi) of the mode's setpoint
    dg_pos: dict[int, int]  # DG id -> position in net.dgs; keys id ascending
    tick: int = 0
    comm_lost: set[int] = field(default_factory=set)
    excluded: dict[int, set[int]] = field(default_factory=dict)
    messages: list[Message] = field(default_factory=list)
    events_applied: list[tuple[int, Event]] = field(default_factory=list)
    controls: list[ControlRecord] = field(default_factory=list)
    voltage_rows: list[tuple[int, int, float]] = field(default_factory=list)
    # (tick, community, generation, anchor DG or None, DG ids, node ids)
    subset_rows: list[tuple] = field(default_factory=list)
    open_episode_since: dict[int, int] = field(default_factory=dict)
    violations_seen: int = 0
    violations_resolved: int = 0
    control_actions: int = 0
    regenerations: int = 0
    _seq: int = 0

    @property
    def pf(self) -> PowerFlowSolution:
        return self.sens.pf

    def send(self, sender: AgentId, receiver: AgentId, kind: MessageKind, payload: dict) -> None:
        self.messages.append(
            Message(seq=self._seq, tick=self.tick, sender=sender, receiver=receiver, kind=kind, payload=payload)
        )
        self._seq += 1


@dataclass(frozen=True)
class CommunityView:
    """Everything one CA decides from: its own buses and available DGs, and
    the sensitivities between them at the current operating point."""

    community: int
    node_ids: list[int]  # non-slack buses, id ascending
    v0: np.ndarray  # their voltage magnitudes
    dg_ids: list[int]  # online, reachable, not excluded; id ascending
    dg_buses: list[int]
    now: np.ndarray  # the DGs' setpoints in the run's mode
    lo: np.ndarray  # and their capability ranges
    hi: np.ndarray
    v_sens: np.ndarray  # node_ids x dg_ids voltage sensitivities
    transformers: list[TransformerAngleRows]  # touching the community, over dg_ids


def initialize(
    net: NetworkModel,
    partition: Partition,
    sens: SensitivityMatrix,
    mode: SensitivityMode = SensitivityMode.VQ,
    v_limits: tuple[float, float] = (0.95, 1.05),
) -> SimulationState:
    """Stand up agents, subsets and capability ranges on a private copy of
    net, starting from the flow sens was taken at (sens.pf). Raises
    ValueError if that flow does not solve net as it is now."""
    net = copy.deepcopy(net)
    if not sens.pf.solves(net):
        raise ValueError("the sensitivities' operating point does not solve this network")

    slack_id = net.slack_bus.id
    nodes_of: dict[int, list[int]] = {c: [] for c in sorted(set(partition.community_of.values()))}
    for bus_id in sorted(partition.community_of):
        if bus_id != slack_id:
            nodes_of[partition.community_of[bus_id]].append(bus_id)

    state = SimulationState(
        net=net,
        partition=partition,
        sens=sens,
        mode=mode,
        v_limits=v_limits,
        nodes_of=nodes_of,
        subsets={},
        cap_range={d.id: capability_range(d, mode) for d in net.dgs_sorted()},
        dg_pos=dict(sorted((d.id, i) for i, d in enumerate(net.dgs))),
    )
    for c in nodes_of:
        state.subsets[c] = _build_subsets(_view(state, c), generation=0)
        _record_subsets(state, c)
    return state


def _view(state: SimulationState, community: int) -> CommunityView:
    """Slice one community's view out of the network-wide flow and
    sensitivities; the only reader of them on the CA side."""
    community_of = state.partition.community_of
    banned = state.excluded.get(community, ())
    dgs = []
    for i in state.dg_pos.values():
        d = state.net.dgs[i]
        if community_of[d.bus] == community and d.online and d.id not in state.comm_lost and d.id not in banned:
            dgs.append(d)
    nodes = state.nodes_of[community]
    sens, pf, mode = state.sens, state.pf, state.mode
    rows = [sens.row[b] for b in nodes]
    cols = [sens.row[d.bus] for d in dgs]
    ranges = np.array([state.cap_range[d.id] for d in dgs]).reshape(-1, 2)
    transformers = [
        TransformerAngleRows(
            label=f"{t.primary_bus}->{t.secondary_bus}",
            theta_p0=float(pf.v_ang[pf.index_of[t.primary_bus]]),
            theta_s0=float(pf.v_ang[pf.index_of[t.secondary_bus]]),
            theta_shift=t.phase_shift,
            p_row=sens.angle_row(t.primary_bus, mode)[cols],
            s_row=sens.angle_row(t.secondary_bus, mode)[cols],
        )
        for t in state.net.transformers
        if community in (community_of.get(t.primary_bus), community_of.get(t.secondary_bus))
    ]
    return CommunityView(
        community=community,
        node_ids=nodes,
        v0=pf.v_mag[[pf.index_of[b] for b in nodes]],
        dg_ids=[d.id for d in dgs],
        dg_buses=[d.bus for d in dgs],
        now=np.array([setpoint(d, mode) for d in dgs]),
        lo=ranges[:, 0],
        hi=ranges[:, 1],
        v_sens=sens.voltage_block(mode)[np.ix_(rows, cols)],
        transformers=transformers,
    )


def _build_subsets(view: CommunityView, generation: int) -> CommunitySubsets:
    if not view.dg_ids or not view.node_ids:
        return CommunitySubsets(community=view.community, subsets=[], generation=generation)
    d_com = build_dg_adjacency(view.v_sens)
    dg_bus_of = dict(zip(view.dg_ids, view.dg_buses))
    return derive_subsets(d_com, view.node_ids, view.dg_ids, dg_bus_of, community=view.community, generation=generation)


def _record_subsets(state: SimulationState, community: int) -> None:
    cs = state.subsets[community]
    rows = [(s.anchor_dg, s.dg_ids, s.nodes) for s in cs.subsets] or [(None, (), ())]
    state.subset_rows.extend((state.tick, community, cs.generation, *row) for row in rows)


def self_organize(state: SimulationState, community: int) -> None:
    """Rebuild a community's subsets from its currently reachable DGs and
    bump the generation counter."""
    gen = state.subsets[community].generation + 1
    state.subsets[community] = _build_subsets(_view(state, community), generation=gen)
    state.regenerations += 1
    _record_subsets(state, community)
    if not state.subsets[community].subsets:
        ca = AgentId(AgentKind.CA, community)
        state.send(ca, ca, MessageKind.INFEASIBLE_NOTICE, {"community": community, "reason": "no_available_dg"})


def _resolve(state: SimulationState, why: str) -> None:
    pf = solve_power_flow(state.net, state.pf.tolerance)
    if not pf.converged:
        raise SimulationDiverged(f"power flow diverged after {why} at tick {state.tick}", state)
    state.sens = compute_sensitivity_matrix(state.net, pf)


def _apply_events(state: SimulationState, events: Sequence[Event]) -> tuple[bool, set[int]]:
    """Returns (electrical state changed, communities to re-organize)."""
    changed = False
    marks: set[int] = set()
    for ev in events:
        state.events_applied.append((state.tick, ev))
        if ev.kind is EventKind.LOAD_CHANGE:
            state.net.buses[state.pf.index_of[ev.target]].p_load += float(ev.magnitude)
            changed = True
            continue

        dg = state.net.dgs[state.dg_pos[ev.target]]
        power, on = _DG_TOGGLES[ev.kind]
        if (dg.online if power else dg.id not in state.comm_lost) is on:
            continue
        if power:
            dg.online = on
            changed = True
        elif on:
            state.comm_lost.discard(dg.id)
        else:
            state.comm_lost.add(dg.id)
        community = state.partition.community_of[dg.bus]
        marks.add(community)
        state.excluded.pop(community, None)
        if power:
            notice = MessageKind.RESTORE_NOTICE if on else MessageKind.TRIP_NOTICE
            state.send(AgentId(AgentKind.DA, dg.id), AgentId(AgentKind.CA, community), notice, {"dg": dg.id})
    return changed, marks


def _update_episodes(state: SimulationState, violating: set[int]) -> None:
    for bus in sorted(violating - set(state.open_episode_since)):
        state.open_episode_since[bus] = state.tick
        state.violations_seen += 1
    for bus in sorted(set(state.open_episode_since) - violating):
        del state.open_episode_since[bus]
        state.violations_resolved += 1


def _control_community(state: SimulationState, view: CommunityView, violated: list[int]) -> dict[int, float]:
    """One CA's decision for this tick, from its view alone; returns the
    adjustments to apply."""
    community = view.community
    ca = AgentId(AgentKind.CA, community)
    v_min, v_max = state.v_limits
    v = view.v0[np.searchsorted(view.node_ids, violated)]
    over = v.max() - v_max >= v_min - v.min()
    direction = ControlDirection.OVERVOLTAGE if over else ControlDirection.UNDERVOLTAGE

    def refuse(reason: str, dgs: list[int], **detail) -> None:
        state.send(
            ca, ca, MessageKind.INFEASIBLE_NOTICE,
            {"community": community, "reason": reason, "nodes": violated, **detail},
        )
        state.controls.append(
            ControlRecord(state.tick, community, direction.value, False, None, dgs, [], violated)
        )

    hit = set(violated)
    dg_ids = sorted({g for s in state.subsets[community].subsets if not hit.isdisjoint(s.nodes) for g in s.dg_ids})
    if not dg_ids:
        refuse("no_available_dg", [])
        return {}

    col_of = {g: j for j, g in enumerate(view.dg_ids)}
    cols = [col_of[g] for g in dg_ids]
    now, lo, hi = view.now[cols], view.lo[cols], view.hi[cols]
    if over:
        v_max = v_max - LIN_GUARD
    else:
        v_min = v_min + LIN_GUARD

    try:
        problem = ControlProblem(
            direction=direction,
            mode=state.mode,
            dg_ids=dg_ids,
            node_ids=view.node_ids,
            v0=view.v0,
            v_sens=view.v_sens[:, cols],
            x_lower=lo - now,
            x_upper=hi - now,
            transformers=[replace(t, p_row=t.p_row[cols], s_row=t.s_row[cols]) for t in view.transformers],
            v_min=v_min,
            v_max=v_max,
        )
    except ValueError as exc:
        # Active-power control cannot raise voltages; log and leave the
        # episode open rather than abort the run.
        refuse(str(exc), dg_ids)
        return {}

    solution = solve_lp(formulate_lp(problem))

    if not solution.feasible:
        headroom = now - lo if over else hi - now
        exhausted = {g for g, room in zip(dg_ids, headroom) if room <= HEADROOM_TOL}
        already = state.excluded.setdefault(community, set())
        new = exhausted - already
        refuse("exhausted_dg" if new else "no_feasible_adjustment", dg_ids, exhausted=sorted(exhausted))
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
        pending.update(_control_community(state, _view(state, c), sorted(by_community[c])))

    if pending:
        for g in sorted(pending):
            apply_adjustment(state.net.dgs[state.dg_pos[g]], state.mode, pending[g], *state.cap_range[g])
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
) -> RunReport:
    """Drive the tick loop over a scenario and collect the run's records."""
    validate_scenario(scenario, net)
    state = initialize(net, partition, sens, mode=mode, v_limits=v_limits)
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


def write_report(report: RunReport, out_dir: str | Path) -> None:
    """Write the run's CSV logs; output is a pure function of the run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    write_table(
        out / "events.csv",
        ["tick", "kind", "target", "magnitude"],
        ((tick, ev.kind.value, ev.target, ev.magnitude) for tick, ev in report.events),
    )
    write_table(
        out / "controls.csv",
        ["tick", "community", "direction", "feasible", "objective", "dgs", "adjustments", "nodes"],
        (
            (r.tick, r.community, r.direction, int(r.feasible), r.objective,
             joined(r.dg_ids), joined(r.adjustments), joined(r.nodes))
            for r in report.controls
        ),
    )
    write_table(out / "voltages.csv", ["tick", "bus", "v_mag"], report.voltage_rows)
    write_table(
        out / "subsets_history.csv",
        ["tick", "community", "generation", "anchor_dg", "dgs", "nodes"],
        ((t, c, gen, anchor, joined(dgs), joined(nodes)) for t, c, gen, anchor, dgs, nodes in report.subset_rows),
    )
    write_table(
        out / "messages.csv",
        ["seq", "tick", "sender", "receiver", "kind", "payload"],
        ((m.seq, m.tick, str(m.sender), str(m.receiver), m.kind.value, payload(m.payload)) for m in report.messages),
    )
    (out / "summary.txt").write_text(report.summary() + "\n")
