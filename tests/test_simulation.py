import copy
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcomm import simulation
from gridcomm.network import DG, Branch, Bus, BusKind, NetworkModel, Transformer
from gridcomm.partition import Partition, partition_network
from gridcomm.powerflow import solve_power_flow
from gridcomm.sensitivity import SensitivityMode, compute_sensitivity_matrix, dg_columns
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

from conftest import (
    count_ybus_builds,
    jacobian_at,
    null_trip30,
    overvoltage30,
    prepared,
    record_factorizations,
    synth153,
    synth30,
    trip_restore30,
    write_scenario,
)


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


def test_an_event_at_the_last_tick_plus_one_is_refused():
    # Ticks run from 0 to duration - 1, so an event at tick == duration
    # never fires; one at duration - 1 does.
    net = synth30()
    validate_scenario(Scenario(events=[Event(1, EventKind.DG_TRIP, 21)], duration=2), net)
    with pytest.raises(ScenarioError, match=re.escape("event dg_trip at tick 2 never fires (duration 2)")):
        validate_scenario(Scenario(events=[Event(2, EventKind.DG_TRIP, 21)], duration=2), net)


@pytest.mark.parametrize(
    "events, duration, named",
    [
        ([Event(1, EventKind.LOAD_CHANGE, 4)], 3, "events[0] field 'magnitude' must be a finite number"),
        ([Event(1, EventKind.LOAD_CHANGE, 4, float("nan"))], 3, "events[0] field 'magnitude' must be a finite"),
        ([Event(0, EventKind.DG_TRIP, 1), Event(-1, EventKind.DG_TRIP, 1)], 3, "events[1] field 'at_tick'"),
        ([Event(1, EventKind.DG_TRIP, 1, 0.5)], 3, "events[0] field 'magnitude' is not taken by dg_trip"),
        ([], 0, "'duration' must be at least 1, got 0"),
        ([Event(1, EventKind.LOAD_CHANGE, 4, "0.5")], 3, "events[0] field 'magnitude' must be a finite number"),
        ([Event(1.5, EventKind.DG_TRIP, 1)], 3, "events[0] field 'at_tick' must be an integer, got 1.5"),
        ([], 2.5, "'duration' must be an integer, got 2.5"),
        ([Event(1, "dg_trip", 1)], 3, "events[0] field 'kind' must be an EventKind, got 'dg_trip'"),
        ([Event(True, EventKind.DG_TRIP, 1)], 3, "events[0] field 'at_tick' must be an integer, got True"),
        ([], True, "'duration' must be an integer, got True"),
        ([Event(1, EventKind.LOAD_CHANGE, 4, True)], 3, "events[0] field 'magnitude' must be a finite number"),
        ([Event(1, EventKind.DG_TRIP, True)], 3, "events[0] field 'target' must be an integer, got True"),
        ([Event(1, EventKind.DG_TRIP, 1.0)], 3, "events[0] field 'target' must be an integer, got 1.0"),
    ],
    ids=[
        "load change without magnitude", "nan magnitude", "negative tick", "trip with magnitude", "no ticks",
        "string magnitude", "fractional tick", "fractional duration", "string kind",
        "bool tick", "bool duration", "bool magnitude", "bool target", "float target",
    ],
)
def test_a_scenario_built_in_code_meets_the_file_rules(net6, events, duration, named):
    # load_scenario's event and duration rules hold for a Scenario built in
    # code too, named by field, before any tick runs.
    part, sens = prepared(net6)
    scenario = Scenario(events=events, duration=duration)
    with pytest.raises(ScenarioError, match=re.escape(f"scenario {named}")):
        validate_scenario(scenario, net6)
    with pytest.raises(ScenarioError, match=re.escape(named)):
        run_scenario(net6, scenario, part, sens)


def test_a_scenario_built_in_code_takes_numpy_numbers(net6):
    # A numpy integer is an integer and a numpy float a magnitude; only a
    # bool is no number.
    events = [Event(np.int64(0), EventKind.DG_TRIP, np.int64(1)), Event(1, EventKind.LOAD_CHANGE, 4, np.float64(0.01))]
    validate_scenario(Scenario(events=events, duration=np.int64(2)), net6)


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


@pytest.mark.parametrize(
    "misplace, named",
    [
        (lambda c: c.pop(4), "puts bus 4 in no community"),
        (lambda c: c.update({99: 0}), "names bus 99, which the network does not have"),
        (lambda c: c.update({3: 5}), "puts bus 3 in community 5, not one of its 2"),
    ],
    ids=["missing bus", "unknown bus", "community out of range"],
)
def test_initialize_names_a_bus_the_partition_misplaces(net6, misplace, named):
    part, sens = prepared(net6)
    misplace(part.community_of)
    with pytest.raises(ValueError, match=named):
        initialize(net6, part, sens)
    with pytest.raises(ValueError, match=named):
        run_scenario(net6, Scenario(events=[Event(1, EventKind.LOAD_CHANGE, 4, 0.5)], duration=3), part, sens)


LOAD_STEP_AT_4 = Scenario(events=[Event(1, EventKind.LOAD_CHANGE, 4, 0.5)], duration=3)


def test_mode_given_as_its_string_runs_that_mode(net6):
    part, sens = prepared(net6)
    for mode in SensitivityMode:
        np.testing.assert_array_equal(sens.voltage_block(mode.value), sens.voltage_block(mode))
        string_part, _ = partition_network(net6, sens, mode.value)
        assert string_part.community_of == partition_network(net6, sens, mode)[0].community_of
        by_string = run_scenario(net6, LOAD_STEP_AT_4, part, sens, mode=mode.value)
        by_enum = run_scenario(net6, LOAD_STEP_AT_4, part, sens, mode=mode)
        assert by_string.summary() == by_enum.summary()
        assert (by_string.controls, by_string.messages) == (by_enum.controls, by_enum.messages)
        assert by_string.final_state.mode is mode
    # vq resolves both episodes; vp refuses the undervoltage without an LP.
    vq, vp = (run_scenario(net6, LOAD_STEP_AT_4, part, sens, mode=m) for m in ("vq", "vp"))
    assert "resolved:2 unresolved:0 actions:2" in vq.summary()
    assert [(r.direction, r.feasible) for r in vp.controls] == [("undervoltage", False)] * 2
    assert [m.payload["reason"] for m in vp.messages if m.kind is MessageKind.INFEASIBLE_NOTICE] == [
        "active-power control is implemented for overvoltage curtailment only"
    ] * 2


def test_an_unknown_mode_is_named(net6):
    part, sens = prepared(net6)
    with pytest.raises(ValueError, match="'banana'"):
        sens.voltage_block("banana")
    with pytest.raises(ValueError, match="'banana'"):
        initialize(net6, part, sens, mode="banana")
    with pytest.raises(ValueError, match="'banana'"):
        run_scenario(net6, LOAD_STEP_AT_4, part, sens, mode="banana")


@pytest.mark.parametrize(
    "v_limits",
    [(1.05, 0.95), (0.95, 0.95), (float("nan"), 1.05), (0.95, float("inf"))],
    ids=["inverted", "empty", "nan", "infinite"],
)
def test_initialize_checks_the_voltage_band(net6, v_limits):
    part, sens = prepared(net6)
    with pytest.raises(ValueError, match="v_limits"):
        initialize(net6, part, sens, v_limits=v_limits)
    with pytest.raises(ValueError, match="v_limits"):
        run_scenario(net6, Scenario(events=[], duration=3), part, sens, v_limits=v_limits)


def test_initialize_checks_the_flow_against_the_kept_ybus(monkeypatch):
    # The check uses the flow's own Y-bus: a changed branch does not fit the
    # flow's grid and is rejected with no Y-bus built.
    net = synth30()
    part, sens = prepared(net)
    calls = count_ybus_builds(monkeypatch)
    initialize(net, part, sens)
    assert len(calls) == 0
    net.branches[3].r *= 1.1
    with pytest.raises(ValueError, match="does not solve"):
        initialize(net, part, sens)
    assert len(calls) == 0


def test_state_keeps_the_online_dg_columns_of_each_operating_point():
    net = synth30()
    part, sens = prepared(net)
    state = initialize(net, part, sens, mode=SensitivityMode.VP)
    expected = dg_columns(sens, net, SensitivityMode.VP, online_only=True)
    np.testing.assert_array_equal(state.sens.online_columns(state.mode).matrix, expected.matrix)
    np.testing.assert_array_equal(state.sens.online_columns(state.mode).angles, expected.angles)

    step(state, [Event(0, EventKind.DG_TRIP, 21)])
    cols = state.sens.online_columns(state.mode)
    assert cols.dg_ids == [d.id for d in net.dgs_sorted() if d.id != 21]
    assert cols.matrix.shape == cols.angles.shape == (len(state.sens.bus_ids), len(net.dgs) - 1)
    expected = dg_columns(state.sens, state.net, SensitivityMode.VP, online_only=True)
    np.testing.assert_array_equal(cols.matrix, expected.matrix)


def test_dg_columns_are_solved_on_first_read():
    # A tick with no violation and no DG event reads no DG columns, so its
    # re-solve factors no Jacobian at the solved point. Read later, the
    # columns are the eager ones of the DGs online at that re-solve, bit for
    # bit, in the state and in deep copies taken before and after the tick.
    net = synth153()
    part, sens = prepared(net)
    state = initialize(net, part, sens, v_limits=(0.5, 1.5))
    early = copy.deepcopy(state)
    tick = [Event(0, EventKind.LOAD_CHANGE, 40, 0.05)]
    step(state, tick)
    assert state.violations_seen == 0
    assert state.sens._online_cols == {}
    assert "factor" not in state.pf.__dict__
    eager = dg_columns(state.sens, state.net, state.mode, online_only=True)
    late = copy.deepcopy(state)
    step(early, tick)
    state.net.dgs[0].online = False  # no re-solve: the columns keep the re-solve's DGs
    for s in (state, late, early):
        assert s.sens.online_columns(s.mode).dg_ids == eager.dg_ids
        assert s.sens.online_columns(s.mode).matrix.tobytes() == eager.matrix.tobytes()
        assert s.sens.online_columns(s.mode).angles.tobytes() == eager.angles.tobytes()


def test_view_gives_a_slack_transformer_end_a_zero_angle_row():
    # slack 0 -> transformer -> bus 1 (DG 1) -> feeder -> bus 2
    net = NetworkModel(
        s_base=10.0,
        buses=[
            Bus(0, BusKind.SLACK, 13.8),
            Bus(1, BusKind.PQ, 0.48),
            Bus(2, BusKind.PQ, 0.48, p_load=0.02, q_load=0.01),
        ],
        branches=[Branch(1, 2, 0.01, 0.04)],
        transformers=[Transformer(0, 1, 0.01, 0.06)],
        dgs=[DG(id=1, bus=1, p_out=0.01, q_out=0.01, p_surplus=0.05, q_surplus=0.05)],
    )
    sens = compute_sensitivity_matrix(net, solve_power_flow(net))
    state = initialize(net, Partition({0: 0, 1: 0, 2: 0}, 1, 0.0), sens)
    view = simulation._view(state, 0)
    by_q = sens.columns(SensitivityMode.VQ, [1])
    assert view.flow_labels == ["0->1"]
    # secondary row less a zero primary row; zero primary angle less the secondary's
    np.testing.assert_array_equal(view.flow_rows, [by_q[sens.row_of(1)]])
    np.testing.assert_array_equal(view.flow_rhs, [-state.pf.v_ang[state.pf.index_of[1]]])
    np.testing.assert_array_equal(view.v_sens, by_q[2:])


def tapped153():
    """synth153 with every transformer's tap off 1 and every other one
    phase-shifted."""
    net = synth153()
    for k, tr in enumerate(net.transformers):
        tr.tap, tr.phase_shift = (0.975, 1.025)[k % 2], (0.0, 0.03, 0.0, -0.05)[k % 4]
    return net


def test_view_reverse_flow_rows_on_a_phase_shifted_network_of_several_blocks():
    # One row per transformer touching the community: the secondary's less
    # the primary's angle response to the view's DGs, against the dense
    # inverse Jacobian, and the right-hand side (theta_p - theta_s) - phi,
    # computed here by hand, phi the phase shift.
    net = tapped153()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    pf = state.pf
    assert len(pf.grid.blocks) >= 3
    inverse = np.linalg.inv(jacobian_at(pf))
    n1 = len(sens.bus_ids)
    by_ends = {(t.primary_bus, t.secondary_bus): t for t in state.net.transformers}
    shifted = []
    for c in range(part.n_communities):
        view = simulation._view(state, c)
        q_cols = [n1 + sens.row[state.dgs[g].bus] for g in view.dg_ids]

        def angle_row(bus):
            return inverse[sens.row[bus], q_cols] if bus in sens.row else np.zeros(len(q_cols))

        for label, row, rhs in zip(view.flow_labels, view.flow_rows, view.flow_rhs):
            p, s = map(int, label.split("->"))
            phi = by_ends[p, s].phase_shift
            assert rhs == (pf.v_ang[pf.index_of[p]] - pf.v_ang[pf.index_of[s]]) - phi
            expected = angle_row(s) - angle_row(p)
            assert np.max(np.abs(row - expected), initial=0.0) <= 1e-12 * np.max(np.abs(inverse[:n1]))
            shifted.append(phi != 0)
    assert any(shifted) and not all(shifted)


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
    monkeypatch.setattr(simulation, "solve_power_flow", lambda *a, **k: calls.append(a) or real(*a, **k))
    step(state, [Event(0, EventKind.DG_TRIP, 21)])
    assert state.violations_seen == 0
    assert len(calls) == 1


def test_deep_copied_state_shares_the_grid_structure():
    # The grid structure is immutable, so a deep copy of a state shares it;
    # stepping the copy leaves the original's next step as it is on a state
    # with a structure of its own. The copy's DG map holds the copy's DGs.
    net = synth153()
    state = initialize(net, *prepared(net))
    reference = initialize(net, *prepared(net))
    grid = state.pf.grid
    assert reference.pf.grid is not grid
    for array in grid.ybus:
        with pytest.raises(ValueError):
            array[0] = 0
    twin = copy.deepcopy(state)
    assert twin.pf.grid is grid
    assert all(twin.dgs[d.id] is d for d in twin.net.dgs) and twin.dgs.keys() == state.dgs.keys()
    step(twin, [Event(0, EventKind.LOAD_CHANGE, 34, 0.6), Event(0, EventKind.DG_TRIP, 16)])
    assert twin.pf.grid is grid  # the re-solve reused it

    events = [Event(0, EventKind.LOAD_CHANGE, 20, 0.6)]
    step(state, events)
    step(reference, events)
    assert state.pf.grid is grid
    assert state.pf.v_mag.tobytes() == reference.pf.v_mag.tobytes()
    assert (
        state.sens.online_columns(state.mode).matrix.tobytes()
        == reference.sens.online_columns(reference.mode).matrix.tobytes()
    )
    assert state.controls == reference.controls and state.controls
    for rows in ("voltage_rows", "subset_rows", "messages"):
        assert getattr(state, rows) == getattr(reference, rows)


def test_load_change_builds_no_ybus(monkeypatch):
    # A load change leaves the branch and transformer data as they are, so
    # the re-solve and its sensitivities use the kept Y-bus.
    net = synth30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    bus = state.sens.bus_ids[-1]
    calls = count_ybus_builds(monkeypatch)
    step(state, [Event(0, EventKind.LOAD_CHANGE, bus, 0.001)])
    assert state.violations_seen == 0 and state.control_actions == 0
    assert len(calls) == 0


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


def test_restore_brings_back_the_dgs_its_community_excluded():
    # A DG event in a community clears the DGs its CA excluded as exhausted:
    # with 21 tripped and 20 excluded, restoring 21 regroups community 3
    # around all three of its DGs again.
    net = null_trip30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    step(state, [Event(0, EventKind.DG_TRIP, 21)])
    state.excluded[3] = {20}  # as an exhausted_dg refusal leaves it
    self_organize(state, 3)
    assert [s.anchor_dg for s in state.subsets[3].subsets] == [25]
    step(state, [Event(1, EventKind.DG_RESTORE, 21)])
    assert 3 not in state.excluded
    assert [s.anchor_dg for s in state.subsets[3].subsets] == [20, 21, 25]


@pytest.mark.parametrize("kind", [EventKind.DG_TRIP, EventKind.COMM_LOSS])
def test_a_repeated_dg_event_changes_nothing(net6, kind):
    # A trip of a DG already offline, or a comm loss of one already cut off,
    # is ignored: no second notice, no re-solve, no new subset generation,
    # and the community keeps the DGs its CA excluded. The band is wide so
    # that no control runs.
    part, sens = prepared(net6)
    state = initialize(net6, part, sens, v_limits=(0.5, 1.5))
    community = part.community_of[net6.dg_by_id(1).bus]
    step(state, [Event(0, kind, 1)])
    assert state.subsets[community].generation == 1
    state.excluded[community] = {2}  # as an exhausted_dg refusal leaves it
    pf, sent = state.pf, len(state.messages)
    step(state, [Event(1, kind, 1)])
    assert state.pf is pf
    assert state.messages[sent:] == []
    assert [m.kind for m in state.messages].count(MessageKind.TRIP_NOTICE) == (kind is EventKind.DG_TRIP)
    assert state.subsets[community].generation == 1 and state.regenerations == 1
    assert state.excluded == {community: {2}}


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


def _load_steps(tick, *steps):
    return [Event(tick, EventKind.LOAD_CHANGE, bus, pu) for bus, pu in steps]


# The last tick's load steps at buses 5 and 15 pass the point of voltage
# collapse: at 98% of them the flow still converges (min |V| 0.60).
COLLAPSE = [[], [], _load_steps(2, (1, 1.0), (5, 1.0)), _load_steps(3, (5, 1.0), (5, 1.125), (15, 1.125))]


@settings(max_examples=30, deadline=None)
@given(event_ticks())
@example(COLLAPSE)
def test_views_stay_local_and_subsets_cover_nodes(ticks):
    part, sens = SYNTH30_PREPARED
    state = initialize(SYNTH30, part, sens)
    built = []
    real_view = simulation._view

    def recording_view(state, community, dg_ids=None):
        view = real_view(state, community, dg_ids)
        built.append((community, view))
        return view

    def check_local():
        for c, view in built:
            assert all(part.community_of[b] == c for b in view.node_ids)
            assert all(part.community_of[state.net.dg_by_id(g).bus] == c for g in view.dg_ids)
            assert view.v_sens.shape == (len(view.node_ids), len(view.dg_ids))

    with mock.patch.object(simulation, "_view", recording_view):
        for events in ticks:
            try:
                step(state, events)
            except SimulationDiverged as exc:
                # the documented way out of a collapsed flow
                assert exc.state is state
                check_local()
                return
            built.extend((c, real_view(state, c)) for c in state.nodes_of)
            check_local()
            for c, nodes in state.nodes_of.items():
                if real_view(state, c).dg_ids:
                    covered = [n for s in state.subsets[c].subsets for n in s.nodes]
                    assert sorted(covered) == sorted(nodes)
                    assert len(covered) == len(set(covered))
            built.clear()


@settings(max_examples=30, deadline=None)
@given(event_ticks(), st.data())
def test_view_of_dg_ids_is_the_full_view_sliced(ticks, data):
    # A CA's one view per decision, built over its subset's DGs, is the
    # view of all the community's available DGs sliced at their columns.
    part, sens = SYNTH30_PREPARED
    state = initialize(SYNTH30, part, sens)
    for events in ticks:
        try:
            step(state, events)
        except SimulationDiverged:
            return
        for c in state.nodes_of:
            full = simulation._view(state, c)
            if not full.dg_ids:
                continue
            keep = sorted(data.draw(st.sets(st.integers(0, len(full.dg_ids) - 1), min_size=1)))
            ids = [full.dg_ids[j] for j in keep]
            view = simulation._view(state, c, ids)
            assert view.dg_ids == ids
            assert view.node_ids == full.node_ids
            assert view.v0.tobytes() == full.v0.tobytes()
            assert view.v_sens.tobytes() == full.v_sens[:, keep].tobytes()
            assert view.x_lower.tobytes() == full.x_lower[keep].tobytes()
            assert view.x_upper.tobytes() == full.x_upper[keep].tobytes()
            assert view.flow_labels == full.flow_labels
            assert view.flow_rhs.tobytes() == full.flow_rhs.tobytes()
            assert view.flow_rows.shape == full.flow_rows[:, keep].shape
            assert view.flow_rows.tobytes() == full.flow_rows[:, keep].tobytes()


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


def test_resolve_after_control_factors_no_jacobian(monkeypatch):
    # The LP reads the flow's solved-point factor; the re-solve after the
    # control action starts warm on that factor and converges by chord
    # steps on it, factoring no Jacobian of its own.
    net = synth153()
    part, sens = prepared(net)
    events = [
        Event(1, EventKind.DG_TRIP, 16),
        Event(2, EventKind.LOAD_CHANGE, 20, 0.6),
        Event(3, EventKind.LOAD_CHANGE, 34, 0.6),
        Event(4, EventKind.DG_RESTORE, 16),
    ]
    points = record_factorizations(monkeypatch)
    real = simulation._resolve
    after_control = []

    def resolve(state, why):
        lender, before = state.pf, len(points)
        real(state, why)
        if why == "control adjustments":
            after_control.append(("factor" in lender.__dict__, len(points) - before, state.pf))

    monkeypatch.setattr(simulation, "_resolve", resolve)
    report = run_scenario(net, Scenario(events=events, duration=6), part, sens)
    assert report.actions > 0
    assert after_control
    for read, factored, pf in after_control:
        assert read and factored == 0
        assert pf.converged and pf.iterations > 0 and pf.factorizations == 0


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


def bus4_load_step(net, mode, magnitude, duration):
    """net6 with a load step at bus 4 on tick 1, run to the end."""
    part, sens = prepared(net)
    scenario = Scenario(events=[Event(1, EventKind.LOAD_CHANGE, 4, magnitude)], duration=duration)
    return run_scenario(net, scenario, part, sens, mode=mode)


def refusals(report):
    return [(m.tick, m.payload) for m in report.messages if m.kind is MessageKind.INFEASIBLE_NOTICE]


def test_vp_undervoltage_is_refused_before_any_lp(net6, monkeypatch):
    # Curtailment cannot raise a voltage: the CA refuses on its own, builds
    # no LP, and the episodes stay open.
    monkeypatch.setattr(simulation, "formulate_lp", lambda *args: pytest.fail("an LP was built"))
    report = bus4_load_step(net6, SensitivityMode.VP, 0.5, 3)
    reason = "active-power control is implemented for overvoltage curtailment only"
    assert refusals(report) == [(t, {"community": 0, "reason": reason, "nodes": [4, 5]}) for t in (1, 2)]
    assert [(r.tick, r.direction, r.feasible, r.dg_ids, r.adjustments) for r in report.controls] == [
        (1, "undervoltage", False, [2], []),
        (2, "undervoltage", False, [2], []),
    ]
    assert report.summary() == "violations:2 resolved:0 unresolved:2 actions:0 regenerations:0"


def test_infeasible_lp_without_an_exhausted_dg_is_refused(net6):
    # A +0.7 pu step is more than DG 2 can lift once it has moved on tick 1:
    # the next two LPs are infeasible with headroom left, so nothing is
    # excluded and the subsets stay as they are.
    report = bus4_load_step(net6, SensitivityMode.VQ, 0.7, 4)
    assert refusals(report) == [
        (t, {"community": 0, "reason": "no_feasible_adjustment", "nodes": [4], "exhausted": []}) for t in (2, 3)
    ]
    assert not report.final_state.excluded.get(0)
    assert report.summary() == "violations:4 resolved:3 unresolved:1 actions:2 regenerations:0"


def test_exhausted_dg_is_excluded_and_the_community_regroups(net6):
    # DG 2 has no reactive surplus, so its LP is infeasible with DG 2 at its
    # range edge: the CA excludes it and regroups around no DG at all.
    net6.dg_by_id(2).q_surplus = 0.0
    report = bus4_load_step(net6, SensitivityMode.VQ, 0.3, 3)
    assert refusals(report) == [
        (1, {"community": 0, "reason": "exhausted_dg", "nodes": [4, 5], "exhausted": [2]}),
        (1, {"community": 0, "reason": "no_available_dg"}),
        (2, {"community": 0, "reason": "no_available_dg", "nodes": [4, 5]}),
    ]
    assert report.final_state.excluded == {0: {2}}
    assert report.summary() == "violations:2 resolved:0 unresolved:2 actions:0 regenerations:1"


@pytest.mark.parametrize(
    "magnitude, refused", [(0.5, 0), (0.7, 2)], ids=["actions", "no feasible adjustment"]
)
def test_agents_act_on_the_messages_they_are_sent(net6, magnitude, refused):
    # Messages are a tick's only data path: a CA decides over the buses its
    # BAs reported, and a DA moves by the command it was sent and no more.
    part, sens = prepared(net6)
    state = initialize(net6, part, sens)
    all_commands = 0
    for t in range(4):
        before = {g: d.q_out for g, d in state.dgs.items()}
        sent, decided, actions = len(state.messages), len(state.controls), state.control_actions
        step(state, [Event(1, EventKind.LOAD_CHANGE, 4, magnitude)] if t == 1 else [])
        tick = state.messages[sent:]

        reported: dict[int, list[int]] = {}
        for m in tick:
            if m.kind is MessageKind.VIOLATION_REPORT:
                reported.setdefault(m.receiver.index, []).append(m.payload["bus"])
        assert [(r.community, r.nodes) for r in state.controls[decided:]] == [
            (c, sorted(buses)) for c, buses in sorted(reported.items())
        ]

        commands = [m for m in tick if m.kind is MessageKind.ADJUSTMENT_COMMAND]
        x = {m.receiver.index: m.payload["x"] for m in commands}
        assert len(x) == len(commands)
        for g, d in state.dgs.items():
            lo, hi = state.cap_range[g]
            assert d.q_out == (min(max(before[g] + x[g], lo), hi) if g in x else before[g])
        assert state.control_actions - actions == len(commands)
        all_commands += len(commands)

    assert all_commands == state.control_actions > 0
    reasons = [m.payload["reason"] for m in state.messages if m.kind is MessageKind.INFEASIBLE_NOTICE]
    assert reasons == ["no_feasible_adjustment"] * refused


def test_a_small_adjustment_is_still_commanded(net6, monkeypatch):
    # A CA commands every adjustment its LP returns above rounding level:
    # an answer of 1e-6 pu per DG reaches each DA and moves its setpoint.
    real = simulation.solve_lp

    def small(lp):
        solution = real(lp)
        if solution.feasible:
            solution.x = np.full_like(solution.x, 1e-6)
        return solution

    monkeypatch.setattr(simulation, "solve_lp", small)
    part, sens = prepared(net6)
    state = initialize(net6, part, sens)
    step(state)
    before = {g: d.q_out for g, d in state.dgs.items()}
    step(state, [Event(1, EventKind.LOAD_CHANGE, 4, 0.5)])
    [decision] = state.controls
    assert decision.feasible and decision.adjustments == [1e-6] * len(decision.dg_ids)
    commands = [m.payload for m in state.messages if m.kind is MessageKind.ADJUSTMENT_COMMAND]
    assert commands == [{"dg": g, "x": 1e-6} for g in decision.dg_ids]
    assert state.control_actions == len(decision.dg_ids)
    for g in decision.dg_ids:
        assert state.dgs[g].q_out == before[g] + 1e-6


def test_a_faulty_control_problem_raises_out_of_step(net6, monkeypatch):
    # Only the CA's own refusals are logged as such; an error while building
    # the LP is a fault and leaves step.
    def faulty(*args):
        raise ValueError("v_sens must be 2x1, got (2, 2)")

    part, sens = prepared(net6)
    state = initialize(net6, part, sens)
    monkeypatch.setattr(simulation, "formulate_lp", faulty)
    with pytest.raises(ValueError, match="v_sens must be"):
        step(state, [Event(0, EventKind.LOAD_CHANGE, 4, 0.7)])


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
