import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcomm import simulation
from gridcomm.network import DG
from gridcomm.sensitivity import SensitivityMode
from gridcomm.simulation import (
    AgentKind,
    Event,
    EventKind,
    MessageKind,
    Scenario,
    ScenarioError,
    SimulationDiverged,
    initialize,
    load_scenario,
    run_scenario,
    self_organize,
    step,
    validate_scenario,
    write_report,
)

from conftest import count_ybus_builds, null_trip30, overvoltage30, prepared, synth30, trip_restore30, write_scenario


def community_of_agent(state, agent):
    if agent.kind is AgentKind.CA:
        return agent.index
    if agent.kind is AgentKind.BA:
        return state.partition.community_of[agent.index]
    return state.partition.community_of[state.net.dg_by_id(agent.index).bus]


# ------------------------------------------------------------ scenario files


def test_load_minimal_scenario(tmp_path):
    path = write_scenario(
        tmp_path / "s.json",
        [{"at_tick": 1, "kind": "dg_trip", "target": 21}],
        duration=5,
        name="demo",
    )
    sc = load_scenario(path)
    assert sc.duration == 5
    assert sc.name == "demo"
    assert sc.events == [Event(at_tick=1, kind=EventKind.DG_TRIP, target=21)]


def test_scenario_defaults(tmp_path):
    path = write_scenario(tmp_path / "blackout.json", [{"at_tick": 3, "kind": "dg_trip", "target": 2}])
    sc = load_scenario(path)
    assert sc.duration == 5  # last event tick + 2
    assert sc.name == "blackout"

    empty = write_scenario(tmp_path / "idle.json", [])
    sc = load_scenario(empty)
    assert sc.duration == 1
    assert sc.events == []


@pytest.mark.parametrize(
    "doc",
    [
        {"events": [], "bogus": 1},
        {"events": [{"at_tick": 0, "kind": "dg_meltdown", "target": 1}]},
        {"events": [{"at_tick": 0, "kind": "dg_trip", "target": 1, "note": "hi"}]},
        {"events": [{"at_tick": True, "kind": "dg_trip", "target": 1}]},
        {"events": [{"at_tick": -1, "kind": "dg_trip", "target": 1}]},
        {"events": [{"at_tick": 0, "kind": "dg_trip", "target": "one"}]},
        {"events": [{"at_tick": 0, "kind": "dg_trip", "target": 1, "magnitude": 0.5}]},
        {"events": [{"at_tick": 0, "kind": "load_change", "target": 1}]},
        {"events": [{"at_tick": 0, "kind": "load_change", "target": 1, "magnitude": True}]},
        {"events": [], "duration": 0},
        {"events": [], "duration": "ten"},
        {"events": "none"},
        [1, 2],
    ],
)
def test_malformed_scenarios_rejected(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_scenario_not_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError):
        load_scenario(path)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"duration": 3, "duration": 5}', "duration"),
        ('{"events": [{"at_tick": 1, "at_tick": 2, "kind": "dg_trip", "target": 1}]}', "at_tick"),
    ],
    ids=["top level", "in an event"],
)
def test_scenario_repeated_key_rejected_and_named(tmp_path, text, key):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value) == f"{path}: key '{key}' appears twice in one object"


def test_validate_scenario_names_unknown_ids():
    net = synth30()
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(
            Scenario(events=[Event(0, EventKind.DG_TRIP, 999)], duration=2), net
        )
    assert "999" in str(exc.value)
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(
            Scenario(events=[Event(0, EventKind.LOAD_CHANGE, 777, 0.1)], duration=2), net
        )
    assert "777" in str(exc.value)
    with pytest.raises(ScenarioError):
        validate_scenario(
            Scenario(events=[Event(9, EventKind.DG_TRIP, 21)], duration=2), net
        )


# ------------------------------------------------------------ initialization


def test_initialize_agent_counts(net6):
    part, sens = prepared(net6)
    state = initialize(net6, part, sens)
    # One BA per bus, one DA per DG, one CA per community.
    assert len(state.net.buses) == 6
    assert len(state.net.dgs) == 2
    communities = sorted(set(part.community_of.values()))
    assert len(communities) == 2
    assert sorted(state.subsets) == communities


def test_initialize_subsets_partition_nodes(net6):
    part, sens = prepared(net6)
    state = initialize(net6, part, sens)
    for c in sorted(set(part.community_of.values())):
        assert state.subsets[c].generation == 0
        assert sorted(n for s in state.subsets[c].subsets for n in s.nodes) == sorted(state.nodes_of[c])


def test_initialize_deterministic(net6):
    part, sens = prepared(net6)
    a = initialize(net6, part, sens)
    b = initialize(net6, part, sens)
    assert np.array_equal(a.pf.v_mag, b.pf.v_mag)
    assert a.subsets == b.subsets
    assert a.cap_range == b.cap_range
    assert a.subset_rows == b.subset_rows


def test_initialize_capability_box():
    net = synth30()
    part, sens = prepared(net)
    vq = initialize(net, part, sens)
    vp = initialize(net, part, sens, mode=SensitivityMode.VP)
    for d in net.dgs_sorted():
        assert vq.cap_range[d.id] == pytest.approx((d.q_out - d.q_surplus, d.q_out + d.q_surplus))
        assert vp.cap_range[d.id] == pytest.approx((d.p_out - d.p_surplus, d.p_out + d.p_surplus))


def test_initialize_copies_network(net6):
    part, sens = prepared(net6)
    state = initialize(net6, part, sens)
    state.net.dg_by_id(1).q_out = 99.0
    assert net6.dg_by_id(1).q_out != 99.0


def test_initialize_solves_no_flow(monkeypatch):
    net = synth30()
    part, sens = prepared(net)
    calls = []
    monkeypatch.setattr(simulation, "solve_power_flow", lambda *a: calls.append(a))
    state = initialize(net, part, sens)
    assert calls == []
    assert state.pf is sens.pf


def test_initialize_rejects_stale_sensitivities(net6):
    part, sens = prepared(net6)
    net6.buses[3].p_load += 0.05
    with pytest.raises(ValueError, match="does not solve"):
        initialize(net6, part, sens)


# ------------------------------------------------------------ stepping


def test_quiescent_step_changes_only_tick():
    net = synth30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    v_before = state.pf.v_mag.copy()
    step(state)
    assert state.tick == 1
    assert state.messages == []
    assert state.controls == []
    assert state.control_actions == 0
    assert np.array_equal(state.pf.v_mag, v_before)
    # One voltage row per bus was logged for the tick.
    assert len(state.voltage_rows) == len(net.buses)


def test_overvoltage_cleared_in_one_round():
    net = overvoltage30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    assert state.pf.v_mag.max() > 1.05

    step(state)

    v_min, v_max = state.v_limits
    assert state.pf.v_mag.max() <= v_max + 5e-3
    assert state.pf.v_mag.min() >= v_min - 5e-3
    # The fixture is built so one round fully clears it.
    assert state.pf.v_mag.max() <= v_max + 1e-9
    assert state.violations_seen > 0
    assert state.violations_resolved == state.violations_seen
    assert state.open_episode_since == {}


def test_control_locality():
    net = overvoltage30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    violated_communities = set()
    for i, bus in enumerate(state.pf.bus_ids):
        if i != state.pf.slack_index and state.pf.v_mag[i] > 1.05:
            violated_communities.add(part.community_of[bus])
    quiet = set(part.community_of.values()) - violated_communities
    assert quiet, "fixture must leave at least one community untouched"

    step(state)

    assert state.messages, "the violation round must produce traffic"
    for m in state.messages:
        assert community_of_agent(state, m.sender) == community_of_agent(state, m.receiver)
        assert community_of_agent(state, m.receiver) not in quiet

    moved = {
        m.receiver.index for m in state.messages if m.kind is MessageKind.ADJUSTMENT_COMMAND
    }
    # Only DGs of the violated nodes' subsets participate.
    allowed = set()
    for c in violated_communities:
        for s in state.subsets[c].subsets:
            allowed.update(s.dg_ids)
    assert moved <= allowed
    untouched = {d.id for d in net.dgs_sorted()} - allowed
    for g in untouched:
        assert state.net.dg_by_id(g).q_out == net.dg_by_id(g).q_out


def test_adjustments_respect_capability_box():
    net = overvoltage30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    step(state)
    for d in state.net.dgs_sorted():
        lo, hi = state.cap_range[d.id]
        assert lo - 1e-12 <= d.q_out <= hi + 1e-12


def test_infeasible_lp_applies_nothing():
    # Surpluses too small to clear the overvoltage: every LP is infeasible,
    # so no DA is commanded and no DG output moves.
    net = overvoltage30()
    for d in net.dgs:
        d.q_surplus = 0.01
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    step(state)
    assert state.controls and not any(r.feasible for r in state.controls)
    assert MessageKind.ADJUSTMENT_COMMAND not in {m.kind for m in state.messages}
    assert state.control_actions == 0
    for d in net.dgs:
        assert state.net.dg_by_id(d.id).q_out == d.q_out


def test_in_band_trip_solves_once(monkeypatch):
    # A trip changes the network, so the flow is re-solved once; with every
    # bus in band no DA moves and nothing is solved again.
    net = synth30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    calls = []
    real = simulation.solve_power_flow
    monkeypatch.setattr(simulation, "solve_power_flow", lambda *a: calls.append(a) or real(*a))
    step(state, [Event(0, EventKind.DG_TRIP, 21)])
    assert state.violations_seen == 0
    assert len(calls) == 1


def test_load_change_builds_the_ybus_once(monkeypatch):
    # The re-solve after a small in-band load change builds the Y-bus, and
    # the sensitivities are taken from that same matrix.
    net = synth30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    bus = state.sens.bus_ids[-1]
    calls = count_ybus_builds(monkeypatch)
    step(state, [Event(0, EventKind.LOAD_CHANGE, bus, 0.001)])
    assert state.violations_seen == 0 and state.control_actions == 0
    assert len(calls) == 1


# ------------------------------------------------------------ self-organization


def c3_subsets(state):
    return [(s.anchor_dg, s.dg_ids, s.nodes) for s in state.subsets[3].subsets]


def test_trip_regroups_and_restore_inverts():
    net = null_trip30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    gen0 = c3_subsets(state)
    assert [s[0] for s in gen0] == [20, 21, 25]
    assert sorted(n for s in state.subsets[3].subsets for n in s.nodes) == sorted(state.nodes_of[3])

    step(state, [Event(0, EventKind.DG_TRIP, 21)])
    gen1 = c3_subsets(state)
    assert state.subsets[3].generation == 1
    assert [s[0] for s in gen1] == [20, 25]
    assert sorted(n for s in state.subsets[3].subsets for n in s.nodes) == sorted(state.nodes_of[3])

    # Orphaned nodes adopt their next-best DG: independent argmax oracle
    # over the surviving columns.
    block = state.sens.voltage_block(state.mode)
    nodes = state.nodes_of[3]
    expected = {20: [], 25: []}
    for b in nodes:
        r = state.sens.row_of(b)
        cols = {g: block[r, state.sens.row_of(state.net.dg_by_id(g).bus)] for g in (20, 25)}
        best = max(sorted(cols), key=lambda g: (cols[g], -g))
        expected[best].append(b)
    assert {s[0]: list(s[2]) for s in gen1} == {g: sorted(v) for g, v in expected.items() if v}

    step(state, [Event(1, EventKind.DG_RESTORE, 21)])
    assert state.subsets[3].generation == 2
    assert c3_subsets(state) == gen0
    assert state.regenerations == 2
    assert state.violations_seen == 0


def test_comm_loss_regroups_like_trip_but_keeps_output():
    net = null_trip30()
    net.dg_by_id(21).q_out = 0.05
    part, sens = prepared(net)

    tripped = initialize(net, part, sens)
    step(tripped, [Event(0, EventKind.DG_TRIP, 21)])

    lost = initialize(net, part, sens)
    step(lost, [Event(0, EventKind.COMM_LOSS, 21)])

    assert [(s.anchor_dg, s.nodes) for s in lost.subsets[3].subsets] == [
        (s.anchor_dg, s.nodes) for s in tripped.subsets[3].subsets
    ]
    # Communication loss leaves the hardware running.
    assert lost.net.dg_by_id(21).online
    assert lost.net.dg_by_id(21).q_out == 0.05
    assert not tripped.net.dg_by_id(21).online

    step(lost, [Event(1, EventKind.COMM_RESTORE, 21)])
    assert lost.subsets[3].generation == 2
    assert [s.anchor_dg for s in lost.subsets[3].subsets] == [20, 21, 25]


def test_trip_restore_notices_flow_to_ca():
    net = null_trip30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    step(state, [Event(0, EventKind.DG_TRIP, 21)])
    step(state, [Event(1, EventKind.DG_RESTORE, 21)])
    kinds = [(m.kind, str(m.sender), str(m.receiver)) for m in state.messages]
    assert (MessageKind.TRIP_NOTICE, "DA:21", "CA:3") in kinds
    assert (MessageKind.RESTORE_NOTICE, "DA:21", "CA:3") in kinds


def test_self_organize_bumps_generation_in_place():
    net = synth30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    before = state.subsets[3]
    self_organize(state, 3)
    assert state.subsets[3].generation == before.generation + 1
    assert [s.nodes for s in state.subsets[3].subsets] == [s.nodes for s in before.subsets]
    assert state.regenerations == 1


SYNTH30 = synth30()
SYNTH30_PREPARED = prepared(SYNTH30)


@st.composite
def event_ticks(draw):
    """4 to 6 ticks of random DG and load events on synth30."""
    dg_ids = sorted(d.id for d in SYNTH30.dgs)
    bus_ids = sorted(b.id for b in SYNTH30.buses)
    dg_kinds = [EventKind.DG_TRIP, EventKind.DG_RESTORE, EventKind.COMM_LOSS, EventKind.COMM_RESTORE]
    dg_event = st.builds(lambda k, g: (k, g, None), st.sampled_from(dg_kinds), st.sampled_from(dg_ids))
    load_event = st.builds(
        lambda b, m: (EventKind.LOAD_CHANGE, b, m), st.sampled_from(bus_ids), st.floats(-1.2, 1.2, allow_nan=False)
    )
    ticks = draw(st.lists(st.lists(st.one_of(dg_event, load_event), max_size=4), min_size=4, max_size=6))
    return [[Event(t, kind, target, m) for kind, target, m in evs] for t, evs in enumerate(ticks)]


@settings(max_examples=30, deadline=None)
@given(event_ticks())
def test_views_stay_local_and_subsets_cover_nodes(ticks):
    part, sens = SYNTH30_PREPARED
    state = initialize(SYNTH30, part, sens)
    built = []
    real_view = simulation._view

    def recording_view(state, community):
        view = real_view(state, community)
        built.append(view)
        return view

    with mock.patch.object(simulation, "_view", recording_view):
        for events in ticks:
            step(state, events)
            built.extend(real_view(state, c) for c in state.nodes_of)
            for view in built:
                c = view.community
                assert all(part.community_of[b] == c for b in view.node_ids)
                assert all(part.community_of[state.net.dg_by_id(g).bus] == c for g in view.dg_ids)
                assert view.v_sens.shape == (len(view.node_ids), len(view.dg_ids))
            for c, nodes in state.nodes_of.items():
                if real_view(state, c).dg_ids:
                    covered = [n for s in state.subsets[c].subsets for n in s.nodes]
                    assert sorted(covered) == sorted(nodes)
                    assert len(covered) == len(set(covered))
            built.clear()


# ------------------------------------------------------------ scenario runs


def test_empty_scenario_reports_zeroes():
    net = synth30()
    part, sens = prepared(net)
    report = run_scenario(net, Scenario(events=[], duration=3), part, sens)
    assert report.summary() == "violations:0 resolved:0 unresolved:0 actions:0 regenerations:0"
    assert report.controls == []
    assert len(report.voltage_rows) == 3 * len(net.buses)


def test_trip_restore_resolves_within_tick():
    net = trip_restore30()
    part, sens = prepared(net)
    scenario = Scenario(
        events=[Event(1, EventKind.DG_TRIP, 21), Event(3, EventKind.DG_RESTORE, 21)],
        duration=5,
        name="trip-restore",
    )
    report = run_scenario(net, scenario, part, sens)
    assert report.summary() == (
        "violations:1 resolved:1 unresolved:0 actions:1 regenerations:2"
    )
    # The violation is resolved in the tick it appears: the control record
    # lands on the trip tick and the voltage log never shows a second
    # out-of-band tick for that bus.
    assert len(report.controls) == 1
    rec = report.controls[0]
    assert rec.tick == 1
    assert rec.feasible
    low = [(t, b) for t, b, v in report.voltage_rows if v < 0.95]
    assert low == []


def test_degraded_community_flags_unresolved(tmp_path):
    net = synth30()
    part, sens = prepared(net)
    scenario = Scenario(
        events=[
            Event(0, EventKind.DG_TRIP, 16),
            Event(0, EventKind.LOAD_CHANGE, 17, 1.5),
        ],
        duration=2,
        name="stranded",
    )
    report = run_scenario(net, scenario, part, sens)
    assert report.violations == 1
    assert report.resolved == 0
    assert report.unresolved == 1
    assert report.actions == 0

    notices = [m for m in report.messages if m.kind is MessageKind.INFEASIBLE_NOTICE]
    assert notices
    assert all(m.payload["reason"] == "no_available_dg" for m in notices)
    failed = [r for r in report.controls if not r.feasible]
    assert failed and all(r.community == 2 for r in failed)
    assert 17 in failed[0].nodes


def test_divergence_preserves_state():
    net = synth30()
    part, sens = prepared(net)
    scenario = Scenario(events=[Event(1, EventKind.LOAD_CHANGE, 17, 80.0)], duration=3)
    with pytest.raises(SimulationDiverged) as exc:
        run_scenario(net, scenario, part, sens)
    assert exc.value.state.tick == 1
    assert exc.value.state.events_applied[-1][1].magnitude == 80.0


def test_run_rejects_invalid_scenario():
    net = synth30()
    part, sens = prepared(net)
    with pytest.raises(ScenarioError):
        run_scenario(
            net, Scenario(events=[Event(0, EventKind.DG_TRIP, 404)], duration=2),
            part, sens,
        )


# ------------------------------------------------------------ reports


def test_write_report_deterministic(tmp_path):
    net = trip_restore30()
    part, sens = prepared(net)
    scenario = Scenario(
        events=[Event(1, EventKind.DG_TRIP, 21), Event(3, EventKind.DG_RESTORE, 21)],
        duration=5,
        name="twice",
    )
    names = ["events.csv", "controls.csv", "voltages.csv", "subsets_history.csv", "messages.csv", "summary.txt"]
    outs = []
    for sub in ("a", "b"):
        report = run_scenario(net, scenario, part, sens)
        out = tmp_path / sub
        write_report(report, out)
        outs.append(out)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_write_report_structure(tmp_path):
    net = trip_restore30()
    part, sens = prepared(net)
    scenario = Scenario(
        events=[Event(1, EventKind.DG_TRIP, 21), Event(3, EventKind.DG_RESTORE, 21)],
        duration=5,
        name="shape",
    )
    report = run_scenario(net, scenario, part, sens)
    write_report(report, tmp_path)

    events = (tmp_path / "events.csv").read_text().splitlines()
    assert events[0] == "tick,kind,target,magnitude"
    assert events[1].startswith("1,dg_trip,21,")

    controls = (tmp_path / "controls.csv").read_text().splitlines()
    assert controls[0] == "tick,community,direction,feasible,objective,dgs,adjustments,nodes"
    assert len(controls) == 2

    voltages = (tmp_path / "voltages.csv").read_text().splitlines()
    assert voltages[0] == "tick,bus,v_mag"
    assert len(voltages) == 1 + 5 * len(net.buses)

    subsets = (tmp_path / "subsets_history.csv").read_text().splitlines()
    assert subsets[0] == "tick,community,generation,anchor_dg,dgs,nodes"

    summary = (tmp_path / "summary.txt").read_text()
    assert summary == report.summary() + "\n"


def test_run_report_messages_match_payload_kinds():
    net = trip_restore30()
    part, sens = prepared(net)
    scenario = Scenario(
        events=[Event(1, EventKind.DG_TRIP, 21), Event(3, EventKind.DG_RESTORE, 21)],
        duration=5,
    )
    report = run_scenario(net, scenario, part, sens)
    for m in report.messages:
        if m.kind is MessageKind.VIOLATION_REPORT:
            assert {"bus", "v", "side"} <= set(m.payload)
            assert m.sender.kind is AgentKind.BA and m.receiver.kind is AgentKind.CA
        elif m.kind is MessageKind.ADJUSTMENT_COMMAND:
            assert {"dg", "x"} <= set(m.payload)
            assert m.sender.kind is AgentKind.CA and m.receiver.kind is AgentKind.DA
        elif m.kind in (MessageKind.TRIP_NOTICE, MessageKind.RESTORE_NOTICE):
            assert "dg" in m.payload
            assert m.sender.kind is AgentKind.DA and m.receiver.kind is AgentKind.CA
        else:
            assert m.kind is MessageKind.INFEASIBLE_NOTICE
            assert "reason" in m.payload
    seqs = [m.seq for m in report.messages]
    assert seqs == sorted(seqs) == list(range(len(seqs)))
