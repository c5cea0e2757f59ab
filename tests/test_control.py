from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcomm.control import (
    V_LIMITS,
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
from gridcomm.network import Branch, Bus, BusKind, DG, NetworkModel, Transformer
from gridcomm.partition import build_dg_adjacency
from gridcomm.powerflow import solve_power_flow
from gridcomm.sensitivity import SensitivityMode, compute_sensitivity_matrix

from conftest import formulate_lp_by_rows, lp_vertex_oracle, v_of


PF = 1e-12  # power-flow tolerance

SENS_3X2 = np.array([[0.3, 0.1], [0.1, 0.3], [0.2, 0.2]])


def control_problem(direction, **view):
    """formulate_lp's arguments: the view of the given fields, with no
    reverse-flow rows unless given, the direction and the default band."""
    k = len(view["dg_ids"])
    view = {"flow_labels": [], "flow_rows": np.zeros((0, k)), "flow_rhs": np.zeros(0), **view}
    return CommunityView(**view), direction, *V_LIMITS


def one_dg_problem(v0, direction, qsur=1.0, sens=0.05):
    return control_problem(
        direction=direction,
        dg_ids=[1],
        node_ids=[2],
        v0=np.array([float(v0)]),
        v_sens=np.array([[sens]]),
        x_lower=np.array([-qsur]),
        x_upper=np.array([qsur]),
    )


def transformer_net(q_out=0.8):
    """Slack, a primary feeder bus, and one DG behind a stepdown transformer."""
    return NetworkModel(
        s_base=10.0,
        buses=[
            Bus(0, BusKind.SLACK, 13.8),
            Bus(1, BusKind.PQ, 13.8, p_load=0.01, q_load=0.004),
            Bus(2, BusKind.PQ, 0.48, p_load=0.02, q_load=0.008),
        ],
        branches=[Branch(0, 1, 0.01, 0.04)],
        transformers=[Transformer(1, 2, 0.01, 0.06)],
        dgs=[DG(id=1, bus=2, p_out=0.015, q_out=q_out, p_surplus=0.05, q_surplus=1.2)],
    )


# ------------------------------------------------------- community DG matrix


def test_dg_matrix_argmax_rows():
    d = build_dg_adjacency(SENS_3X2)
    np.testing.assert_array_equal(d, [[1, 0], [0, 1], [1, 0]])


def test_dg_matrix_recompute_after_dg_loss():
    # DG0 offline: the surviving column decides every row.
    d = build_dg_adjacency(SENS_3X2[:, [1]])
    np.testing.assert_array_equal(d, [[1], [1], [1]])


# ------------------------------------------------------- subsets


def test_subsets_group_by_anchor():
    d = build_dg_adjacency(SENS_3X2)
    subs = derive_subsets(d, [10, 11, 12], [0, 1], {0: 10, 1: 11})
    assert len(subs.subsets) == 2
    by_anchor = {s.anchor_dg: s for s in subs.subsets}
    assert by_anchor[0].nodes == (10, 12)
    assert by_anchor[1].nodes == (11,)
    assert sorted(n for s in subs.subsets for n in s.nodes) == [10, 11, 12]


def test_subsets_partition_nodes_exactly():
    d = build_dg_adjacency(SENS_3X2)
    subs = derive_subsets(d, [10, 11, 12], [0, 1], {0: 10, 1: 11})
    seen = [n for s in subs.subsets for n in s.nodes]
    assert sorted(seen) == [10, 11, 12]
    assert len(seen) == len(set(seen))
    for node in (10, 11, 12):
        assert any(node in s.nodes for s in subs.subsets)
    assert not any(99 in s.nodes for s in subs.subsets)


def test_subsets_absorb_nodes_after_anchor_trip():
    # Tripping DG0 removes its column; its nodes fall to the next-best DG.
    before = derive_subsets(
        build_dg_adjacency(SENS_3X2),
        [10, 11, 12], [0, 1], {0: 10, 1: 11},
    )
    after = derive_subsets(
        build_dg_adjacency(SENS_3X2[:, [1]]),
        [10, 11, 12], [1], {1: 11},
    )
    assert len(before.subsets) == 2
    assert len(after.subsets) == 1
    assert after.subsets[0].anchor_dg == 1
    assert after.subsets[0].nodes == (10, 11, 12)


def test_subset_includes_colocated_dgs():
    # DG1 sits on node 12, inside DG0's subset, so it joins that subset's DG set.
    d = build_dg_adjacency(SENS_3X2)
    subs = derive_subsets(d, [10, 11, 12], [0, 1], {0: 10, 1: 12})
    by_anchor = {s.anchor_dg: s for s in subs.subsets}
    assert by_anchor[0].dg_ids == (0, 1)


def test_single_dg_single_subset():
    d = build_dg_adjacency(np.array([[0.4], [0.2]]))
    subs = derive_subsets(d, [7, 8], [3], {3: 7})
    assert len(subs.subsets) == 1
    assert subs.subsets[0].nodes == (7, 8)
    assert subs.subsets[0].dg_ids == (3,)


# ------------------------------------------------------- formulation


def test_lp_direct_transcription_single_dg():
    lp = formulate_lp(*one_dg_problem(1.06, ControlDirection.OVERVOLTAGE))
    row = lp.row_labels.index(("v_upper", 2))
    np.testing.assert_allclose(lp.a_ub[row], [0.05, 0.0])
    assert lp.b_ub[row] == pytest.approx(-0.01, abs=1e-15)
    # Objective: maximize y, encoded as minimize -y.
    np.testing.assert_allclose(lp.c, [0.0, -1.0])


def test_lp_maxmin_rows_per_dg():
    problem = control_problem(
        direction=ControlDirection.OVERVOLTAGE,
        dg_ids=[4, 9],
        node_ids=[2],
        v0=np.array([1.07]),
        v_sens=np.array([[0.05, 0.03]]),
        x_lower=np.array([-1.0, -1.0]),
        x_upper=np.array([1.0, 1.0]),
    )
    lp = formulate_lp(*problem)
    assert ("maxmin", 4) in lp.row_labels
    assert ("maxmin", 9) in lp.row_labels
    r4 = lp.row_labels.index(("maxmin", 4))
    np.testing.assert_allclose(lp.a_ub[r4], [-1.0, 0.0, 1.0])
    assert ("objective_cap",) in lp.row_labels


def test_lp_undervoltage_flips_coupling():
    lp = formulate_lp(*one_dg_problem(0.94, ControlDirection.UNDERVOLTAGE))
    r = lp.row_labels.index(("maxmin", 1))
    np.testing.assert_allclose(lp.a_ub[r], [1.0, -1.0])
    cap = lp.row_labels.index(("objective_cap",))
    np.testing.assert_allclose(lp.a_ub[cap], [0.0, -1.0])
    np.testing.assert_allclose(lp.c, [0.0, 1.0])


def test_lp_transformer_row_present():
    # secondary angle row 0.5 less primary 0.3; primary angle 0.01 less
    # secondary 0.002, no phase shift
    view, *rest = one_dg_problem(1.06, ControlDirection.OVERVOLTAGE)
    flow = dict(flow_labels=["t0"], flow_rows=np.array([[0.5 - 0.3]]), flow_rhs=np.array([0.01 - 0.002 - 0.0]))
    lp = formulate_lp(replace(view, **flow), *rest)
    r = lp.row_labels.index(("reverse_flow", "t0"))
    np.testing.assert_allclose(lp.a_ub[r], [0.2, 0.0])
    assert lp.b_ub[r] == pytest.approx(0.008, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 40),
    n_dgs=st.integers(1, 8),
    n_transformers=st.integers(0, 3),
    direction=st.sampled_from(list(ControlDirection)),
)
def test_lp_blocks_match_row_builder_byte_for_byte(seed, n_nodes, n_dgs, n_transformers, direction):
    """The block-filled LP is the row-by-row one to the byte: every padding
    zero is +0.0, and signed zeros in the sensitivities carry through."""
    rng = np.random.default_rng(seed)

    def floats(*shape):
        x = rng.normal(scale=0.05, size=shape)
        x[rng.random(shape) < 0.2] = 0.0
        x[rng.random(shape) < 0.1] = -0.0
        return x

    problem = control_problem(
        direction=direction,
        dg_ids=sorted(rng.choice(100, n_dgs, replace=False).tolist()),
        node_ids=sorted(rng.choice(300, n_nodes, replace=False).tolist()),
        v0=1.0 + floats(n_nodes),
        v_sens=floats(n_nodes, n_dgs),
        x_lower=-np.abs(floats(n_dgs)),
        x_upper=np.abs(floats(n_dgs)),
        flow_labels=[f"{i}->{i + 1}" for i in range(n_transformers)],
        flow_rows=floats(n_transformers, n_dgs),
        flow_rhs=rng.normal(scale=0.1, size=n_transformers) - rng.normal(scale=0.1, size=n_transformers)
        - rng.choice([0.0, 0.5236], size=n_transformers),
    )
    got, want = formulate_lp(*problem), formulate_lp_by_rows(*problem)
    assert got.a_ub.dtype == want.a_ub.dtype and got.a_ub.shape == want.a_ub.shape
    assert got.a_ub.tobytes() == want.a_ub.tobytes()
    assert got.b_ub.tobytes() == want.b_ub.tobytes()
    assert got.c.tobytes() == want.c.tobytes()
    assert got.row_labels == want.row_labels


def test_empty_dg_list_rejected():
    problem = control_problem(
        direction=ControlDirection.OVERVOLTAGE,
        dg_ids=[],
        node_ids=[2],
        v0=np.array([1.06]),
        v_sens=np.zeros((1, 0)),
        x_lower=np.zeros(0),
        x_upper=np.zeros(0),
    )
    with pytest.raises(ValueError):
        formulate_lp(*problem)


@pytest.mark.parametrize(
    "labels, rows, rhs",
    [
        ([], np.zeros((1, 1)), np.zeros(0)),  # a row without a label
        (["t0"], np.zeros((1, 2)), np.zeros(1)),  # a row over two DGs of one
        (["t0"], np.zeros(1), np.zeros(1)),  # a row not shaped (t, k)
        (["t0"], np.zeros((1, 1)), np.zeros(2)),  # two right-hand sides of one row
        (["t0", "t1"], np.zeros((2, 1)), np.zeros(1)),
    ],
)
def test_view_with_mismatched_reverse_flow_arrays_rejected(labels, rows, rhs):
    view, *_ = one_dg_problem(1.06, ControlDirection.OVERVOLTAGE)
    with pytest.raises(ValueError, match="flow_rows must be"):
        replace(view, flow_labels=labels, flow_rows=rows, flow_rhs=rhs)


# ------------------------------------------------------- solving


def test_solve_single_dg_overvoltage():
    sol = solve_lp(formulate_lp(*one_dg_problem(1.06, ControlDirection.OVERVOLTAGE, qsur=1.0)))
    assert sol.feasible
    assert sol.x[0] == pytest.approx(-0.2, abs=1e-9)
    assert sol.objective == pytest.approx(-0.2, abs=1e-9)
    assert ("v_upper", 2) in sol.binding


def test_solve_within_limits_is_zero():
    sol = solve_lp(formulate_lp(*one_dg_problem(1.04, ControlDirection.OVERVOLTAGE, qsur=1.0)))
    assert sol.feasible
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_solve_insufficient_surplus_infeasible():
    sol = solve_lp(formulate_lp(*one_dg_problem(1.06, ControlDirection.OVERVOLTAGE, qsur=0.1)))
    assert not sol.feasible
    assert sol.x is None and sol.objective is None


def test_solve_undervoltage_min_max():
    sol = solve_lp(formulate_lp(*one_dg_problem(0.94, ControlDirection.UNDERVOLTAGE, qsur=1.0)))
    assert sol.feasible
    assert sol.x[0] == pytest.approx(0.2, abs=1e-9)
    assert sol.objective == pytest.approx(0.2, abs=1e-9)


def test_solve_equal_dgs_share_equally():
    problem = control_problem(
        direction=ControlDirection.OVERVOLTAGE,
        dg_ids=[1, 2],
        node_ids=[5],
        v0=np.array([1.07]),
        v_sens=np.array([[0.05, 0.05]]),
        x_lower=np.array([-1.0, -1.0]),
        x_upper=np.array([1.0, 1.0]),
    )
    sol = solve_lp(formulate_lp(*problem))
    assert sol.feasible
    assert sol.x == pytest.approx([-0.2, -0.2], abs=1e-9)
    assert float(sol.x[problem[0].dg_ids.index(1)]) == pytest.approx(-0.2, abs=1e-9)


def test_solution_satisfies_every_constraint_independently():
    rng = np.random.default_rng(13)
    for _ in range(15):
        v0 = 1.0 + rng.uniform(-0.08, 0.08, size=2)
        direction = (
            ControlDirection.OVERVOLTAGE if rng.random() < 0.5 else ControlDirection.UNDERVOLTAGE
        )
        problem = control_problem(
            direction=direction,
            dg_ids=[1, 2],
            node_ids=[5, 6],
            v0=v0,
            v_sens=rng.uniform(0.01, 0.08, size=(2, 2)),
            x_lower=np.full(2, -1.5),
            x_upper=np.full(2, 1.5),
        )
        lp = formulate_lp(*problem)
        sol = solve_lp(lp)
        if not sol.feasible:
            continue
        z = np.append(sol.x, sol.objective)
        assert np.max(lp.a_ub @ z - lp.b_ub) <= 1e-9


def test_maxmin_optimal_against_vertex_oracle():
    rng = np.random.default_rng(23)
    solved = 0
    for _ in range(15):
        v0 = 1.0 + rng.uniform(-0.09, 0.09, size=2)
        problem = control_problem(
            direction=ControlDirection.OVERVOLTAGE,
            dg_ids=[1, 2],
            node_ids=[5, 6],
            v0=v0,
            v_sens=rng.uniform(0.02, 0.09, size=(2, 2)),
            x_lower=np.full(2, -2.0),
            x_upper=np.full(2, 2.0),
        )
        lp = formulate_lp(*problem)
        sol = solve_lp(lp)
        oracle = lp_vertex_oracle(lp.c, lp.a_ub, lp.b_ub)
        if oracle is None:
            assert not sol.feasible
            continue
        assert sol.feasible
        assert lp.c @ np.append(sol.x, sol.objective) == pytest.approx(oracle[0], abs=1e-9)
        solved += 1
    assert solved >= 10




# ------------------------------------------------------- apply, re-solve, scan
#
# The simulation's apply path: apply_adjustment on each commanded DG, then
# solve_power_flow, then scan_voltage_limits.


def apply_and_resolve(net, x, mode=SensitivityMode.VQ, v_min=0.95, v_max=1.05):
    dg = net.dgs[0]
    apply_adjustment(dg, mode, x, *capability_range(dg, mode))
    sol = solve_power_flow(net, tolerance=PF)
    assert sol.converged
    return sol, scan_voltage_limits(sol, v_min, v_max)


def test_scan_skips_slack_and_sorts():
    net = transformer_net(q_out=0.8)
    sol = solve_power_flow(net, tolerance=PF)
    found = scan_voltage_limits(sol, v_min=0.999, v_max=1.001)
    assert [v.bus for v in found] == [1, 2]
    assert all(v.side == "high" for v in found)
    assert 0 not in {v.bus for v in found}


def test_prediction_close_to_resolved_flow():
    net = transformer_net(q_out=0.8)
    sol = solve_power_flow(net, tolerance=PF)
    sens = compute_sensitivity_matrix(net, sol)
    x = -0.25
    predicted = v_of(sol, 2) + sens.voltage_block(SensitivityMode.VQ)[sens.row_of(2), sens.row_of(2)] * x
    after, _ = apply_and_resolve(net, x)
    assert predicted == pytest.approx(v_of(after, 2), abs=5e-3)


def test_end_to_end_overvoltage_clears():
    net = transformer_net(q_out=0.8)
    sol = solve_power_flow(net, tolerance=PF)
    assert v_of(sol, 2) > 1.05
    sens = compute_sensitivity_matrix(net, sol)
    # responses of the non-slack buses to Q at bus 2, where DG 1 sits
    by_q = sens.columns(SensitivityMode.VQ, [2])
    angle, volt = by_q[: len(sens.bus_ids)], by_q[len(sens.bus_ids) :]
    tr = net.transformers[0]
    lo, hi = capability_range(net.dgs[0], SensitivityMode.VQ)
    problem = control_problem(
        direction=ControlDirection.OVERVOLTAGE,
        dg_ids=[1],
        node_ids=[2],
        v0=np.array([v_of(sol, 2)]),
        v_sens=volt[[sens.row_of(2)]],
        x_lower=np.array([lo - 0.8]),
        x_upper=np.array([hi - 0.8]),
        flow_labels=["t0"],
        flow_rows=np.array([angle[sens.row_of(2)] - angle[sens.row_of(1)]]),
        flow_rhs=np.array([float(sol.v_ang[1]) - float(sol.v_ang[2]) - tr.phase_shift]),
    )
    control = solve_lp(formulate_lp(*problem))
    assert control.feasible
    assert control.x[0] < 0
    after, residual = apply_and_resolve(net, float(control.x[problem[0].dg_ids.index(1)]))
    assert residual == []
    assert v_of(after, 2) <= 1.05 + 1e-9
    # No reverse active flow through the transformer at the new point.
    assert after.v_ang[1] - (after.v_ang[2] + tr.phase_shift) >= -1e-3


def test_apply_zero_changes_nothing():
    net = transformer_net(q_out=0.3)
    before = solve_power_flow(net, tolerance=PF)
    after, residual = apply_and_resolve(net, 0.0)
    np.testing.assert_allclose(after.v_mag, before.v_mag, atol=1e-12)
    assert residual == []


def test_apply_reports_overshoot_residual():
    # An oversized adjustment stops at the range edge (0.8 - 1.2); that edge
    # still overshoots a 0.96 floor, and the nonlinear re-solve must show it.
    net = transformer_net(q_out=0.8)
    after, residual = apply_and_resolve(net, -1.5, v_min=0.96)
    assert net.dgs[0].q_out == 0.8 - 1.2
    assert len(residual) == 1
    assert residual[0].bus == 2
    assert residual[0].side == "low"


def test_apply_active_mode_moves_p():
    net = transformer_net(q_out=0.3)
    apply_and_resolve(net, -0.01, mode=SensitivityMode.VP)
    assert net.dgs[0].p_out == pytest.approx(0.005, abs=1e-15)
    assert net.dgs[0].q_out == pytest.approx(0.3, abs=1e-15)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    mode=st.sampled_from(list(SensitivityMode)),
    p_out=finite, q_out=finite,
    p_surplus=st.floats(0.0, 1e6), q_surplus=st.floats(0.0, 1e6),
    x=finite,
)
def test_apply_stays_in_range_and_moves_one_output(mode, p_out, q_out, p_surplus, q_surplus, x):
    dg = DG(id=1, bus=2, p_out=p_out, q_out=q_out, p_surplus=p_surplus, q_surplus=q_surplus)
    lo, hi = capability_range(dg, mode)
    other = SensitivityMode.VP if mode is SensitivityMode.VQ else SensitivityMode.VQ
    untouched = setpoint(dg, other)
    apply_adjustment(dg, mode, x, lo, hi)
    assert lo <= setpoint(dg, mode) <= hi
    assert setpoint(dg, other) == untouched
