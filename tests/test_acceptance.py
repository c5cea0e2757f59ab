"""Acceptance gate: nine numbered criteria, one test per criterion.

Each test checks its pinned tolerance against an independent oracle
(closed forms, finite differences, brute force enumeration, nonlinear
re-solves) and prints a single `criterion N PASS` line, so a verbose run
doubles as a checklist. Nothing here reuses the code under test as its
own reference.
"""

import copy
import math
import time

import numpy as np
import pytest

from gridcomm.cli import main
from gridcomm.network_io import load_network, save_network
from gridcomm.partition import Partition, WeightedGraph, greedy_partition, modularity
from gridcomm.powerflow import solve_power_flow
from gridcomm.sensitivity import compute_sensitivity_matrix
from gridcomm.simplex import LPStatus, solve_inequality_lp
from gridcomm.simulation import Event, EventKind, Scenario, initialize, run_scenario, step

from conftest import (
    FIXTURES,
    barbell8,
    brute_force_best_modularity,
    k4,
    lp_vertex_oracle,
    null_trip30,
    overvoltage30,
    prepared,
    random_graph,
    synth30,
    trip_restore30,
    two_bus,
    two_triangles,
    write_scenario,
)

TIGHT = 1e-12  # power-flow tolerances
PF = 1e-10


def blocks_of(p: Partition) -> frozenset:
    return frozenset(frozenset(p.members(c)) for c in range(p.n_communities))


def one_block(n: int) -> Partition:
    return Partition(community_of={i: 0 for i in range(n)}, n_communities=1, modularity=0.0)


# ---------------------------------------------------------------------------
# criterion 1: power flow against a closed form


def test_criterion_1_two_bus_closed_form():
    t0 = time.perf_counter()
    sol = solve_power_flow(two_bus(), tolerance=TIGHT)
    # lossless feeder, x = 0.1, q = 0.1: the receiving voltage solves
    # v^2 = v - q*x, whose high root is (1 + sqrt(1 - 4*q*x)) / 2
    exact = (1.0 + math.sqrt(1.0 - 4.0 * 0.1 * 0.1)) / 2.0
    err = abs(sol.v_of(1) - exact)
    elapsed = time.perf_counter() - t0
    assert sol.converged
    assert err <= 1e-8
    assert elapsed < 1.0
    print(f"criterion 1 PASS: two-bus voltage within {err:.2e} of closed form (tol 1e-8, {elapsed * 1e3:.0f} ms)")


# ---------------------------------------------------------------------------
# criterion 2: sensitivity linearization error and its convergence order


def _linearization_error(net, h: float, rng: np.random.Generator, n_dirs: int = 10) -> float:
    base = solve_power_flow(net, tolerance=TIGHT)
    assert base.converged
    sens = compute_sensitivity_matrix(net, base)
    ids = sens.bus_ids
    k = len(ids)
    pos = [base.bus_ids.index(b) for b in ids]
    v0 = base.v_mag[pos]
    t0 = base.v_ang[pos]
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.uniform(-1.0, 1.0, size=2 * k)
        d /= np.max(np.abs(d))
        dp, dq = d[:k] * h, d[k:] * h
        pred_v = v0 + sens.a_vp @ dp + sens.a_vq @ dq
        pred_t = t0 + sens.a_theta_p @ dp + sens.a_theta_q @ dq
        pert = copy.deepcopy(net)
        for i, b in enumerate(ids):
            bus = pert.bus_by_id(b)
            bus.p_load -= dp[i]
            bus.q_load -= dq[i]
        sol = solve_power_flow(pert, tolerance=TIGHT)
        assert sol.converged
        err_v = np.max(np.abs(sol.v_mag[pos] - pred_v))
        err_t = np.max(np.abs(sol.v_ang[pos] - pred_t))
        worst = max(worst, err_v, err_t)
    return worst


def test_criterion_2_linearization_quality():
    t_start = time.perf_counter()
    worst_err = 0.0
    worst_ratio = 0.0
    fixtures = [two_bus(), load_network(FIXTURES / "net6.json"), synth30()]
    for net in fixtures:
        e_full = _linearization_error(net, 1e-4, np.random.default_rng(7))
        e_half = _linearization_error(net, 5e-5, np.random.default_rng(7))
        assert e_full <= 1e-5
        assert e_full > 0.0
        ratio = e_half / e_full
        assert ratio <= 0.35
        worst_err = max(worst_err, e_full)
        worst_ratio = max(worst_ratio, ratio)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0
    print(
        f"criterion 2 PASS: worst linearization error {worst_err:.2e} at step 1e-4 "
        f"(tol 1e-5), halving ratio {worst_ratio:.3f} (tol 0.35, {elapsed:.1f} s)"
    )


# ---------------------------------------------------------------------------
# criterion 3: modularity identities


def test_criterion_3_modularity_identities():
    rng = np.random.default_rng(11)
    for i in range(50):
        n = 4 + (i % 6)
        g = WeightedGraph.from_weights(random_graph(rng, n))
        assert abs(modularity(g, one_block(n))) <= 1e-12

    g = WeightedGraph.from_weights(two_triangles())
    split = Partition(community_of={i: 0 if i < 3 else 1 for i in range(6)}, n_communities=2, modularity=0.0)
    err = abs(modularity(g, split) - 0.5)
    assert err <= 1e-12
    print(f"criterion 3 PASS: 50 one-community graphs give 0 and the triangle split gives 0.5 (tol 1e-12, err {err:.1e})")


# ---------------------------------------------------------------------------
# criterion 4: greedy agglomeration against brute force


def _path4() -> np.ndarray:
    w = np.zeros((4, 4))
    for i in range(3):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return w


def _star5() -> np.ndarray:
    w = np.zeros((5, 5))
    for leaf in range(1, 5):
        w[0, leaf] = w[leaf, 0] = 1.0
    return w


def _bridged_triangles() -> np.ndarray:
    w = two_triangles()
    w[2, 3] = w[3, 2] = 0.5
    return w


def test_criterion_4_greedy_against_brute_force():
    t_start = time.perf_counter()
    designed = [two_triangles(), k4(), barbell8(), _path4(), _star5(), _bridged_triangles()]
    for w in designed:
        best, best_blocks = brute_force_best_modularity(w)
        p, _ = greedy_partition(WeightedGraph.from_weights(w))
        assert abs(p.modularity - best) <= 1e-12
        assert blocks_of(p) == best_blocks

    rng = np.random.default_rng(23)
    worst_frac = 1.0
    for i in range(10):
        n = 5 + (i % 4)
        w = random_graph(rng, n)
        best, _ = brute_force_best_modularity(w)
        p, _ = greedy_partition(WeightedGraph.from_weights(w))
        if best > 1e-9:
            frac = p.modularity / best
            assert frac >= 0.95
            worst_frac = min(worst_frac, frac)
        else:
            assert p.modularity >= best - 1e-12
    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    print(
        f"criterion 4 PASS: 6 designed graphs match brute force exactly (tol 1e-12), "
        f"10 random graphs reach {worst_frac:.3f} of optimum (floor 0.95, {elapsed:.1f} s)"
    )


# ---------------------------------------------------------------------------
# criterion 5: LP solver on hand-checkable fixtures


def test_criterion_5_lp_fixtures():
    solved = [
        # (c, a_ub, b_ub, expected objective)
        ([1.0, 1.0], [[-1, 0], [0, -1], [1, 0], [0, 1]], [0, 0, 2, 3], 0.0),
        ([-3.0, -2.0], [[1, 1], [1, 0], [0, 1]], [4, 3, 2], -11.0),
        ([1.0], [[-1]], [-2], 2.0),
        ([1.0], [[-1]], [4], -4.0),
        ([-2.0, -1.0], [[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0], -3.0),
    ]
    for c, a, b, expected in solved:
        res = solve_inequality_lp(np.array(c, float), np.array(a, float), np.array(b, float))
        assert res.status is LPStatus.OPTIMAL
        assert abs(res.objective - expected) <= 1e-9
        oracle = lp_vertex_oracle(np.array(c, float), np.array(a, float), np.array(b, float))
        assert oracle is not None
        assert abs(res.objective - oracle[0]) <= 1e-9
        residual = np.array(a, float) @ res.x - np.array(b, float)
        assert np.max(residual) <= 1e-9

    infeasible = solve_inequality_lp(np.array([0.0]), np.array([[1.0], [-1.0]]), np.array([1.0, -3.0]))
    assert infeasible.status is LPStatus.INFEASIBLE
    unbounded = solve_inequality_lp(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]))
    assert unbounded.status is LPStatus.UNBOUNDED
    print("criterion 5 PASS: 5 solvable fixtures match the vertex oracle (tol 1e-9, residuals <= 1e-9), infeasible and unbounded detected")


# ---------------------------------------------------------------------------
# criterion 6: one-round overvoltage restoration with bounded model error


def test_criterion_6_overvoltage_cleared_in_one_round():
    net = overvoltage30()
    part, sens = prepared(net)
    before = solve_power_flow(net, tolerance=PF)
    ids = sens.bus_ids
    pos = {b: before.bus_ids.index(b) for b in before.bus_ids}
    assert max(before.v_mag) > 1.05

    q0 = {d.id: d.q_out for d in net.dgs}
    p0 = {d.id: d.p_out for d in net.dgs}
    state = initialize(net, part, sens)
    step(state)

    movers = sorted(d.id for d in state.net.dgs if abs(d.q_out - q0[d.id]) > 1e-12)
    assert movers == [20, 21, 25]
    assert all(state.net.dg_by_id(d.id).p_out == p0[d.id] for d in net.dgs)
    assert all(c.feasible for c in state.controls)
    commanded = sorted({g for c in state.controls for g in c.dg_ids})
    assert commanded == movers

    after = solve_power_flow(state.net, tolerance=PF)
    assert after.converged
    assert max(after.v_mag) <= 1.05 + 1e-9
    assert max(after.v_mag) == pytest.approx(1.0431642637627283, abs=1e-6)

    # linear prediction of every controlled move versus the nonlinear outcome
    row = {b: i for i, b in enumerate(ids)}
    pred = before.v_mag.copy()
    for d in net.dgs:
        dx = state.net.dg_by_id(d.id).q_out - q0[d.id]
        if dx != 0.0:
            col = sens.a_vq[:, row[d.bus]]
            for b in ids:
                pred[pos[b]] += col[row[b]] * dx
    model_err = max(abs(pred[pos[b]] - after.v_mag[pos[b]]) for b in ids)
    assert model_err <= 5e-3

    assert state.violations_seen == state.violations_resolved > 0
    assert state.open_episode_since == {}
    print(
        f"criterion 6 PASS: band restored in one round by DGs {movers}, "
        f"peak 1.0602 -> {max(after.v_mag):.4f} pu, linear model error {model_err:.1e} (tol 5e-3)"
    )


# ---------------------------------------------------------------------------
# criterion 7: subset regrouping on trip and exact inversion on restore


def test_criterion_7_trip_regroup_restore_inversion():
    t_start = time.perf_counter()
    net = null_trip30()
    part, sens = prepared(net)
    state = initialize(net, part, sens)
    community = part.community_of[state.net.dg_by_id(21).bus]
    snapshot = lambda: [(s.anchor_dg, s.dg_ids, s.nodes) for s in state.subsets[community].subsets]

    gen0 = snapshot()
    assert [s[0] for s in gen0] == [20, 21, 25]

    step(state, [Event(0, EventKind.DG_TRIP, 21)])
    gen1 = snapshot()
    assert [s[0] for s in gen1] == [20, 25]
    assert sorted(n for s in state.subsets[community].subsets for n in s.nodes) == sorted(state.nodes_of[community])

    # orphaned nodes must adopt the surviving DG with the highest
    # sensitivity, ties to the lower id: independent argmax oracle
    block = state.sens.voltage_block(state.mode)
    expected: dict[int, list[int]] = {20: [], 25: []}
    for b in state.nodes_of[community]:
        r = state.sens.row_of(b)
        cols = {g: block[r, state.sens.row_of(state.net.dg_by_id(g).bus)] for g in (20, 25)}
        expected[max(sorted(cols), key=lambda g: (cols[g], -g))].append(b)
    assert {s[0]: list(s[2]) for s in gen1} == {g: sorted(v) for g, v in expected.items() if v}

    step(state, [Event(1, EventKind.DG_RESTORE, 21)])
    elapsed = time.perf_counter() - t_start
    assert snapshot() == gen0
    assert state.regenerations == 2
    assert state.violations_seen == 0
    assert elapsed < 10.0
    print(
        f"criterion 7 PASS: trip shrinks community {community} to 2 subsets matching the "
        f"argmax oracle, restore reproduces generation 0 exactly ({elapsed:.1f} s)"
    )


# ---------------------------------------------------------------------------
# criterion 8: bit-identical CLI simulation runs


def test_criterion_8_cli_determinism(tmp_path):
    net_file = tmp_path / "net.json"
    save_network(trip_restore30(), net_file)
    scenario = write_scenario(
        tmp_path / "scenario.json",
        [
            {"at_tick": 1, "kind": "dg_trip", "target": 21},
            {"at_tick": 3, "kind": "dg_restore", "target": 21},
        ],
        duration=5,
    )
    outs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in outs:
        code = main(
            ["simulate", "--network", str(net_file), "--scenario", str(scenario), "--out", str(out)]
        )
        assert code == 0
    names = ["events.csv", "controls.csv", "voltages.csv", "subsets_history.csv", "messages.csv", "summary.txt"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(f"criterion 8 PASS: repeated CLI runs produced byte-identical {', '.join(names)}")


# ---------------------------------------------------------------------------
# criterion 9: every message stays inside its community


def _agent_community(state, agent) -> int:
    if agent.kind.value == "CA":
        return agent.index
    if agent.kind.value == "BA":
        return state.partition.community_of[agent.index]
    return state.partition.community_of[state.net.dg_by_id(agent.index).bus]


def test_criterion_9_message_locality():
    scenarios = [
        (
            trip_restore30(),
            Scenario(events=[Event(1, EventKind.DG_TRIP, 21), Event(3, EventKind.DG_RESTORE, 21)], duration=5),
        ),
        (overvoltage30(), Scenario(events=[], duration=3)),
        (
            synth30(),
            Scenario(
                events=[Event(0, EventKind.DG_TRIP, 16), Event(0, EventKind.LOAD_CHANGE, 17, 1.5)], duration=2
            ),
        ),
        (
            null_trip30(),
            Scenario(events=[Event(0, EventKind.COMM_LOSS, 21), Event(2, EventKind.COMM_RESTORE, 21)], duration=4),
        ),
    ]
    counts = []
    for net, scenario in scenarios:
        part, sens = prepared(net)
        report = run_scenario(net, scenario, part, sens)
        state = report.final_state
        for msg in report.messages:
            assert _agent_community(state, msg.sender) == _agent_community(state, msg.receiver), str(msg)
        counts.append(len(report.messages))
    # the comm loss scenario is legitimately silent (the lost agent cannot
    # talk), the other three must exchange traffic
    assert counts[0] > 0 and counts[1] > 0 and counts[2] > 0
    total = sum(counts)
    print(f"criterion 9 PASS: {total} messages across 4 scenarios, zero crossed a community boundary")
