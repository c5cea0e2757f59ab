"""Multi-agent voltage-control simulation on a partitioned network.

Three agent roles run a synchronous tick loop: bus agents (BA) watch their
own voltage, one community agent (CA) per community turns violation reports
into an adjustment LP over the violated nodes' DG subsets, and DG agents
(DA) apply the commanded setpoint changes. Every exchange is an explicit
Message and every message stays inside one community; the log is the proof
of locality.

A CA decides from its `control.CommunityView` alone: its own non-slack buses
and their voltages, its available DGs with their adjustment bounds, the
voltage sensitivities between the two, and the reverse-flow rows of the
transformers touching it, all arrays sliced at once. For one decision
`_view` slices it over the reported buses' subset DGs alone, and the LP is
formulated over that view. `initialize` checks that the partition puts
each bus of the network in one of its communities, and `run_scenario`
holds a scenario built in code to the rules of a scenario file.
Only `_view` (and `initialize`) read the network-wide flow and
sensitivities. The view slices the columns the sensitivities keep of the
DGs online at their operating point, solved once against the whole
network's Jacobian, so how the rest of the network responds to a DG move
(the boundary) comes from the global Jacobian, not the community alone.

Tick phases, all deterministic:

1. apply the scenario events due this tick (trips, restores, load steps,
   communication loss), re-solving the power flow and sensitivities if the
   electrical state changed, and re-organizing subsets in any community
   whose DG population changed;
2. BAs scan against the voltage band and report violations to their CA;
3. CAs with reports, community id ascending, solve the max-min LP over the
   union of the reported buses' subset DGs and command the DAs they move,
   or self-organize around exhausted DGs when the LP is infeasible; in vp
   mode, which only curtails, a CA refuses an undervoltage without an LP;
4. DAs apply the commands they are sent, each clamped to its DG's
   capability range; the flow is re-solved once if any DA moved, and
   voltages are logged.

Messages are a tick's only data path, so the log holds every violation a
CA acted on and every move a DA made.

Violations are tracked as episodes: a bus entering the band closes the
episode it opened when it left. Run totals count episodes, not ticks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real
from pathlib import Path
from typing import Sequence

import numpy as np

from .control import (
    V_LIMITS,
    CommunitySubsets,
    CommunityView,
    ControlDirection,
    apply_adjustment,
    capability_range,
    derive_subsets,
    formulate_lp,
    scan_voltage_limits,
    setpoint,
    solve_lp,
)
from .network import DG, NetworkModel
from .network_io import joined, read_document, write_table
from .partition import Partition, build_dg_adjacency
from .powerflow import PowerFlowError, PowerFlowSolution, solve_power_flow
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
    """Read a scenario file: its events, its duration (by default the last
    event's tick + 2) and its name (by default the file stem), held to
    `_check_rules`. Raises ScenarioError naming the file and the field."""
    path = Path(path)
    doc = read_document(path, ScenarioError, {"events": Event, "duration": int, "name": str})
    events = doc.get("events", [])
    duration = doc.get("duration", max((e.at_tick for e in events), default=-1) + 2)
    _check_rules(events, duration, f"{path}: ")
    return Scenario(events=events, duration=duration, name=doc.get("name", path.stem))


def _is_number(value, kind) -> bool:
    """Whether `value` is a `kind` (a number ABC) and not a bool: in code,
    as in a file, a bool is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_rules(events: Sequence[Event], duration: int, where: str) -> None:
    """The rules of a scenario, read from a file or built in code: every
    event of an EventKind at an integer tick from 0 on an integer target,
    with a finite magnitude on a load change and none on any other event,
    an integer duration of at least 1, and every event at a tick before it,
    so that it fires. A bool is no integer and no magnitude. Raises
    ScenarioError naming the field after `where`."""
    for i, ev in enumerate(events):
        entry = f"{where}events[{i}] field"
        if not isinstance(ev.kind, EventKind):
            raise ScenarioError(f"{entry} 'kind' must be an EventKind, got {ev.kind!r}")
        if not _is_number(ev.at_tick, Integral):
            raise ScenarioError(f"{entry} 'at_tick' must be an integer, got {ev.at_tick!r}")
        if ev.at_tick < 0:
            raise ScenarioError(f"{entry} 'at_tick' must be nonnegative, got {ev.at_tick}")
        if not _is_number(ev.target, Integral):
            raise ScenarioError(f"{entry} 'target' must be an integer, got {ev.target!r}")
        if ev.kind is EventKind.LOAD_CHANGE:
            if not _is_number(ev.magnitude, Real) or not np.isfinite(ev.magnitude):
                raise ScenarioError(f"{entry} 'magnitude' must be a finite number on load_change, got {ev.magnitude}")
        elif ev.magnitude is not None:
            raise ScenarioError(f"{entry} 'magnitude' is not taken by {ev.kind.value}")
    if not _is_number(duration, Integral):
        raise ScenarioError(f"{where}'duration' must be an integer, got {duration!r}")
    if duration < 1:
        raise ScenarioError(f"{where}'duration' must be at least 1, got {duration}")
    for i, ev in enumerate(events):
        if ev.at_tick >= duration:
            raise ScenarioError(
                f"{where}events[{i}]: event {ev.kind.value} at tick {ev.at_tick} never fires (duration {duration})"
            )


def validate_scenario(scenario: Scenario, net: NetworkModel) -> None:
    """Check a scenario against the rules `load_scenario` applies to a file
    and every event's target against the network; raises ScenarioError."""
    _check_rules(scenario.events, scenario.duration, "scenario ")
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


class SimulationDiverged(PowerFlowError):
    """The nonlinear flow stopped converging mid-run; state is attached."""

    def __init__(self, message: str, state: "SimulationState"):
        super().__init__(message)
        self.state = state


@dataclass
class SimulationState:
    net: NetworkModel
    partition: Partition
    sens: SensitivityMatrix  # with the flow it was taken at (sens.pf), its online DGs and their columns
    mode: SensitivityMode
    v_limits: tuple[float, float]
    nodes_of: dict[int, list[int]]  # community -> non-slack bus ids, community id ascending
    subsets: dict[int, CommunitySubsets]
    cap_range: dict[int, tuple[float, float]]  # DG id -> (lo, hi) of the mode's setpoint
    dgs: dict[int, DG]  # DG id -> the DG of net; keys id ascending
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

    @property
    def pf(self) -> PowerFlowSolution:
        return self.sens.pf

    def send(self, sender: AgentId, receiver: AgentId, kind: MessageKind, payload: dict) -> None:
        self.messages.append(Message(tick=self.tick, sender=sender, receiver=receiver, kind=kind, payload=payload))


def initialize(
    net: NetworkModel,
    partition: Partition,
    sens: SensitivityMatrix,
    mode: SensitivityMode = SensitivityMode.VQ,
    v_limits: tuple[float, float] = V_LIMITS,
) -> SimulationState:
    """Stand up agents, subsets and capability ranges on a private copy of
    net, starting from the flow sens was taken at and its online DGs
    (sens.pf, sens.online_dgs). mode is a SensitivityMode or its value.
    Raises ValueError for any other mode, for v_limits that are not two
    finite numbers with v_min < v_max, naming the bus if partition does not
    put each bus of net, and no other, in one of its communities, and if
    that flow does not solve net as it is now."""
    mode = SensitivityMode(mode)
    v_min, v_max = v_limits
    if not (np.isfinite(v_min) and np.isfinite(v_max) and v_min < v_max):
        raise ValueError(f"v_limits must be finite with v_min < v_max, got {v_limits}")
    partition.check_covers([b.id for b in net.buses])
    net = net.copy()
    if not sens.pf.solves(net):
        raise ValueError("the sensitivities' operating point does not solve this network")

    slack_id = net.slack_bus.id
    dgs = net.dgs_sorted()
    state = SimulationState(
        net=net,
        partition=partition,
        sens=sens,
        mode=mode,
        v_limits=v_limits,
        nodes_of={c: [b for b in partition.members(c) if b != slack_id] for c in range(partition.n_communities)},
        subsets={},
        cap_range={d.id: capability_range(d, mode) for d in dgs},
        dgs={d.id: d for d in dgs},
    )
    for c in state.nodes_of:
        _organize(state, c, generation=0)
    return state


def _view(state: SimulationState, community: int, dg_ids: Sequence[int] | None = None) -> CommunityView:
    """Slice one community's view out of the network-wide flow and
    sensitivities over the given sorted DG ids, by default its available
    DGs; the only reader of them on the CA side."""
    community_of = state.partition.community_of
    if dg_ids is None:
        unreachable = state.comm_lost | state.excluded.get(community, set())
        dg_ids = [
            g for g, d in state.dgs.items() if community_of[d.bus] == community and d.online and g not in unreachable
        ]
    dgs = [state.dgs[g] for g in dg_ids]
    nodes = state.nodes_of[community]
    sens, pf, mode, online = state.sens, state.pf, state.mode, state.sens.online_columns(state.mode)
    cols = np.searchsorted(online.dg_ids, dg_ids)

    touching = [
        t for t in state.net.transformers
        if community in (community_of[t.primary_bus], community_of[t.secondary_bus])
    ]
    ends = [t.secondary_bus for t in touching] + [t.primary_bus for t in touching]
    # A slack end keeps a zero row: its angle is fixed.
    rows = np.zeros((len(ends), len(cols)))
    at = [i for i, b in enumerate(ends) if b in sens.row]
    rows[at] = online.angles[np.ix_([sens.row[ends[i]] for i in at], cols)]
    angle = pf.v_ang[[pf.index_of[b] for b in ends]]
    half = len(touching)
    ranges = np.array([state.cap_range[d.id] for d in dgs]).reshape(-1, 2)
    now = np.array([setpoint(d, mode) for d in dgs])
    return CommunityView(
        node_ids=nodes,
        v0=pf.v_mag[[pf.index_of[b] for b in nodes]],
        dg_ids=list(dg_ids),
        x_lower=ranges[:, 0] - now,
        x_upper=ranges[:, 1] - now,
        v_sens=online.matrix[np.ix_([sens.row[b] for b in nodes], cols)],
        flow_labels=[f"{t.primary_bus}->{t.secondary_bus}" for t in touching],
        flow_rows=rows[:half] - rows[half:],
        flow_rhs=(angle[half:] - angle[:half]) - [t.phase_shift for t in touching],
    )


def _organize(state: SimulationState, community: int, generation: int) -> None:
    """Group a community's nodes into subsets around the DGs of its view,
    and log them."""
    view = _view(state, community)
    cs = CommunitySubsets(subsets=[], generation=generation)
    if view.dg_ids and view.node_ids:
        d_com = build_dg_adjacency(view.v_sens)
        dg_bus_of = {g: state.dgs[g].bus for g in view.dg_ids}
        cs = derive_subsets(d_com, view.node_ids, view.dg_ids, dg_bus_of, generation=generation)
    state.subsets[community] = cs
    rows = [(s.anchor_dg, s.dg_ids, s.nodes) for s in cs.subsets] or [(None, (), ())]
    state.subset_rows.extend((state.tick, community, generation, *row) for row in rows)


def self_organize(state: SimulationState, community: int) -> None:
    """Rebuild a community's subsets from its currently reachable DGs and
    bump the generation counter."""
    _organize(state, community, state.subsets[community].generation + 1)
    state.regenerations += 1
    if not state.subsets[community].subsets:
        ca = AgentId(AgentKind.CA, community)
        state.send(ca, ca, MessageKind.INFEASIBLE_NOTICE, {"community": community, "reason": "no_available_dg"})


def _resolve(state: SimulationState, why: str) -> None:
    """Re-solve the flow of state.net, warm from the current flow where the
    grid is unchanged (its grid structure, voltages and kept factor), and
    take the sensitivities there: they fix the DGs online now, and solve
    those DGs' columns on first read."""
    pf = solve_power_flow(state.net, state.pf.tolerance, previous=state.pf)
    if not pf.converged:
        raise SimulationDiverged(
            f"power flow did not converge after {why} at tick {state.tick}: {pf.stop_text()}", state
        )
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

        dg = state.dgs[ev.target]
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


def _control_community(state: SimulationState, community: int, violated: list[int]) -> None:
    """One CA's decision for this tick, from its view and the buses reported
    to it alone; it sends its adjustments to the DAs as commands."""
    hit = set(violated)
    dg_ids = sorted({g for s in state.subsets[community].subsets if not hit.isdisjoint(s.nodes) for g in s.dg_ids})
    # Built before the refusals: its first read of sens.online_columns
    # factors the Jacobian at the solved point, and the next warm re-solve
    # starts from that factor, so a refused decision must read it too.
    view = _view(state, community, dg_ids)
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

    if not dg_ids:
        refuse("no_available_dg", [])
        return

    if state.mode is SensitivityMode.VP and not over:
        # Active-power control cannot raise voltages; log and leave the
        # episode open rather than abort the run.
        refuse("active-power control is implemented for overvoltage curtailment only", dg_ids)
        return

    if over:
        v_max = v_max - LIN_GUARD
    else:
        v_min = v_min + LIN_GUARD
    solution = solve_lp(formulate_lp(view, direction, v_min, v_max))

    if not solution.feasible:
        headroom = -view.x_lower if over else view.x_upper
        exhausted = {g for g, room in zip(dg_ids, headroom) if room <= HEADROOM_TOL}
        already = state.excluded.setdefault(community, set())
        new = exhausted - already
        refuse("exhausted_dg" if new else "no_feasible_adjustment", dg_ids, exhausted=sorted(exhausted))
        if new:
            already.update(new)
            self_organize(state, community)
        return

    for g, xi in zip(dg_ids, solution.x):
        if abs(xi) > 1e-12:
            state.send(
                ca, AgentId(AgentKind.DA, g), MessageKind.ADJUSTMENT_COMMAND,
                {"dg": g, "x": float(xi)},
            )
    state.controls.append(
        ControlRecord(
            state.tick, community, direction.value, True,
            solution.objective, dg_ids, [float(v) for v in solution.x], violated,
        )
    )


def _inbox(state: SimulationState, since: int, kind: MessageKind) -> dict[int, list[dict]]:
    """The payloads of the messages of a kind sent since message `since`,
    by receiver index, receiver ascending; each list in the order sent."""
    inbox: dict[int, list[dict]] = {}
    for m in state.messages[since:]:
        if m.kind is kind:
            inbox.setdefault(m.receiver.index, []).append(m.payload)
    return dict(sorted(inbox.items()))


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

    sent = len(state.messages)
    for v in violations:
        state.send(
            AgentId(AgentKind.BA, v.bus), AgentId(AgentKind.CA, state.partition.community_of[v.bus]),
            MessageKind.VIOLATION_REPORT, {"bus": v.bus, "v": v.v_mag, "side": v.side},
        )
    # Violations are bus ascending, so each CA's reports are too.
    for c, reports in _inbox(state, sent, MessageKind.VIOLATION_REPORT).items():
        _control_community(state, c, [r["bus"] for r in reports])

    commands = _inbox(state, sent, MessageKind.ADJUSTMENT_COMMAND)
    for g, (command,) in commands.items():
        apply_adjustment(state.dgs[g], state.mode, command["x"], *state.cap_range[g])
    if commands:
        state.control_actions += len(commands)
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
    v_limits: tuple[float, float] = V_LIMITS,
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
        (
            (seq, m.tick, str(m.sender), str(m.receiver), m.kind.value, payload(m.payload))
            for seq, m in enumerate(report.messages)
        ),
    )
    (out / "summary.txt").write_text(report.summary() + "\n")
