import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridcomm.network import DG
from gridcomm.network_io import load_network
from gridcomm.powerflow import (
    PowerFlowError,
    SingularJacobianError,
    _injections,
    _mismatch,
    solve_power_flow,
)
from gridcomm.sensitivity import SensitivityMode, compute_sensitivity_matrix, dg_columns
from gridcomm.synthetic import SynthSpec, generate_synthetic_network

from conftest import (
    FIXTURES,
    bus_with_id,
    carried_newton_step,
    count_ybus_builds,
    dense_jacobian,
    dense_ybus,
    jacobian_at,
    ladder238,
    ladder417,
    singular_kept_factors,
    sliced_block_lu,
    synth30,
    synth153,
    trig_jacobian,
    two_bus,
    v_of,
)


TOLERANCE = 1e-12
MODES = list(SensitivityMode)


def solved(net):
    sol = solve_power_flow(net, tolerance=TOLERANCE)
    assert sol.converged
    return sol


def test_two_bus_shapes_and_positive_vq_diagonal():
    net = two_bus(q=0.1)
    sens = compute_sensitivity_matrix(net, solved(net))
    assert sens.bus_ids == [1]
    for mode in MODES:
        assert sens.columns(mode, [1]).shape == (2, 1)
        assert sens.voltage_block(mode).shape == (1, 1)
    # More reactive injection must raise the local voltage.
    assert sens.voltage_block(SensitivityMode.VQ)[0, 0] > 0


def test_blocks_shape_on_synthetic():
    net = generate_synthetic_network(SynthSpec(seed=2))
    sens = compute_sensitivity_matrix(net, solved(net))
    n1 = len(net.buses) - 1
    assert len(sens.bus_ids) == n1
    assert sens.bus_ids == sorted(sens.bus_ids)
    for mode in MODES:
        assert sens.columns(mode, sens.bus_ids).shape == (2 * n1, n1)
        assert sens.columns(mode, sens.bus_ids[:3]).shape == (2 * n1, 3)
        assert sens.voltage_block(mode).shape == (n1, n1)


def test_vq_column_matches_finite_difference():
    net = generate_synthetic_network(SynthSpec(seed=0))
    base = solved(net)
    sens = compute_sensitivity_matrix(net, base)

    bus = sens.bus_ids[len(sens.bus_ids) // 2]
    h = 1e-4
    bumped = copy.deepcopy(net)
    bus_with_id(bumped, bus).q_load -= h
    after = solved(bumped)

    col = sens.columns(SensitivityMode.VQ, [bus])[len(sens.bus_ids) :, 0]
    for i, bid in enumerate(sens.bus_ids):
        predicted = v_of(base, bid) + h * col[i]
        assert predicted == pytest.approx(v_of(after, bid), abs=1e-5)


def test_vp_column_matches_finite_difference():
    net = generate_synthetic_network(SynthSpec(seed=5))
    base = solved(net)
    sens = compute_sensitivity_matrix(net, base)

    bus = sens.bus_ids[3]
    h = 1e-4
    bumped = copy.deepcopy(net)
    bus_with_id(bumped, bus).p_load -= h
    after = solved(bumped)

    col = sens.columns(SensitivityMode.VP, [bus])[len(sens.bus_ids) :, 0]
    for i, bid in enumerate(sens.bus_ids):
        predicted = v_of(base, bid) + h * col[i]
        assert predicted == pytest.approx(v_of(after, bid), abs=1e-5)


def test_mode_selects_block():
    # The mode picks the injection: unit P (VP) or unit Q (VQ) at the bus.
    net = two_bus(p=0.2, q=0.1)
    sol = solved(net)
    sens = compute_sensitivity_matrix(net, sol)
    inv = np.linalg.inv(jacobian_at(sol))
    np.testing.assert_allclose(sens.columns(SensitivityMode.VP, [1]), inv[:, [0]], rtol=1e-12, atol=0)
    np.testing.assert_allclose(sens.columns(SensitivityMode.VQ, [1]), inv[:, [1]], rtol=1e-12, atol=0)
    for mode in MODES:
        np.testing.assert_array_equal(sens.voltage_block(mode), sens.columns(mode, [1])[1:])


def test_slack_has_no_column():
    net = two_bus(q=0.1)
    sens = compute_sensitivity_matrix(net, solved(net))
    with pytest.raises(ValueError, match="unknown bus id 0"):
        sens.columns(SensitivityMode.VQ, [0])


def test_unconverged_solution_rejected():
    net = two_bus(p=100.0, q=50.0)
    sol = solve_power_flow(net)
    assert not sol.converged
    with pytest.raises(PowerFlowError, match="power flow did not converge: voltage collapse"):
        compute_sensitivity_matrix(net, sol)


def test_dg_columns_slice_and_order():
    net = generate_synthetic_network(SynthSpec(seed=0))
    sens = compute_sensitivity_matrix(net, solved(net))
    cols = dg_columns(sens, net, SensitivityMode.VQ)
    dgs = net.dgs_sorted()
    assert cols.dg_ids == [d.id for d in dgs]
    assert cols.matrix.shape == (len(sens.bus_ids), len(dgs))
    by_q = sens.columns(SensitivityMode.VQ, [d.bus for d in dgs])
    n1 = len(sens.bus_ids)
    np.testing.assert_array_equal(cols.matrix, by_q[n1:])
    np.testing.assert_array_equal(cols.angles, by_q[:n1])


def test_dg_columns_online_filter():
    net = generate_synthetic_network(SynthSpec(seed=0))
    net.dgs_sorted()[1].online = False
    sens = compute_sensitivity_matrix(net, solved(net))
    all_cols = dg_columns(sens, net, online_only=False)
    live_cols = dg_columns(sens, net, online_only=True)
    assert len(live_cols.dg_ids) == len(all_cols.dg_ids) - 1
    assert net.dgs_sorted()[1].id not in live_cols.dg_ids


def test_dg_on_slack_rejected():
    net = two_bus(q=0.1)
    net.dgs.append(DG(id=3, bus=0))
    sens = compute_sensitivity_matrix(net, solved(net))
    with pytest.raises(ValueError) as exc:
        dg_columns(sens, net)
    assert "3" in str(exc.value)


def test_no_dgs_gives_empty_matrix():
    net = two_bus(q=0.1)
    sens = compute_sensitivity_matrix(net, solved(net))
    cols = dg_columns(sens, net)
    assert cols.matrix.shape == (1, 0)
    assert cols.angles.shape == (1, 0)
    assert cols.dg_ids == []


@pytest.mark.parametrize("make", [lambda: load_network(FIXTURES / "net6.json"), synth30], ids=["net6", "synth30"])
def test_blocks_are_the_inverse_of_a_freshly_built_jacobian(make):
    # The VP and VQ columns of every bus, side by side, are the inverse of
    # the textbook Jacobian over the dense oracle Y-bus of the network,
    # within rounding.
    net = make()
    assert_columns_invert_a_fresh_jacobian(net, solved(net))


def assert_columns_invert_a_fresh_jacobian(net, sol):
    sens = compute_sensitivity_matrix(net, sol)
    ns = np.array([sol.index_of[b] for b in sens.bus_ids], dtype=int)
    oracle = np.linalg.inv(trig_jacobian(dense_ybus(net), sol.v_mag, sol.v_ang, ns))
    columns = np.hstack([sens.columns(mode, sens.bus_ids) for mode in (SensitivityMode.VP, SensitivityMode.VQ)])
    bound = 1e-12 * np.max(np.abs(oracle))
    assert np.max(np.abs(columns - oracle)) <= bound
    return sens, bound


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.0, 3.0), mode=st.sampled_from(MODES))
def test_columns_match_the_inverse_at_any_load(scale, mode):
    net = synth30()
    for b in net.buses:
        b.p_load *= scale
        b.q_load *= scale
    sol = solve_power_flow(net, tolerance=TOLERANCE)
    assume(sol.converged)
    sens, bound = assert_columns_invert_a_fresh_jacobian(net, sol)
    cols = dg_columns(sens, net, mode)
    rows = [sens.row_of(net.dg_by_id(g).bus) for g in cols.dg_ids]
    assert np.max(np.abs(cols.matrix - sens.voltage_block(mode)[:, rows])) <= bound


def test_singular_jacobian_raises(monkeypatch):
    # One block (synth30) and three (synth153): a zero Jacobian raises, it
    # never yields NaN columns.
    cases = [(net, compute_sensitivity_matrix(net, solved(net))) for net in (synth30(), synth153())]
    assert [len(sens.pf.grid.blocks) for _, sens in cases] == [1, 3]
    singular_kept_factors(monkeypatch)
    for net, sens in cases:
        for mode in MODES:
            with pytest.raises(SingularJacobianError):
                sens.columns(mode, sens.bus_ids[:2])
            with pytest.raises(SingularJacobianError):
                dg_columns(sens, net, mode)


# ---------------------------------------------------------------------------
# the block elimination against the dense solve, on networks of several blocks


SEVERAL_BLOCKS = {"synth153": synth153(), "ladder238": ladder238(), "ladder417": ladder417()}


def flat_start(net, sol):
    """The first Newton step's Jacobian and mismatch, at sol's flat start."""
    v, th = np.ones(len(sol.bus_ids)), np.zeros(len(sol.bus_ids))
    v[sol.slack_index], th[sol.slack_index] = net.slack_bus.v_mag, net.slack_bus.v_ang
    grid, s_spec = sol.grid, _injections(net, sol.index_of)
    ns = grid.non_slack_pos
    return dense_jacobian(grid, v, th), _mismatch(grid.ybus, s_spec, v, th, ns)


def within(x, oracle):
    return np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("name", SEVERAL_BLOCKS)
@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.0, 2.5), mode=st.sampled_from(MODES), picks=st.lists(st.integers(0, 151), max_size=8))
def test_block_lu_matches_the_dense_solve_on_several_blocks(name, scale, mode, picks):
    net = copy.deepcopy(SEVERAL_BLOCKS[name])
    for b in net.buses:
        b.p_load *= scale
        b.q_load *= scale
    sol = solve_power_flow(net, tolerance=TOLERANCE)
    assume(sol.converged)
    jac = jacobian_at(sol)
    n_rows = len(jac)
    blocks = sol.grid.blocks
    assert len(blocks) >= 2

    # The blocks partition the rows, and the Jacobian lies within their band.
    rows = np.concatenate(blocks)
    assert np.array_equal(np.sort(rows), np.arange(n_rows))
    block_of = np.empty(n_rows, dtype=int)
    for k, b in enumerate(blocks):
        block_of[b] = k
    outside = np.abs(block_of[:, None] - block_of[None, :]) > 1
    assert np.all(jac[outside] == 0.0)

    # Sensitivity columns against the dense solve of the same Jacobian.
    sens = compute_sensitivity_matrix(net, sol)
    buses = [sens.bus_ids[i] for i in picks] or sens.bus_ids
    unit = np.zeros((n_rows, len(buses)))
    offset = n_rows // 2 if mode is SensitivityMode.VQ else 0
    unit[[offset + sens.row_of(b) for b in buses], np.arange(len(buses))] = 1.0
    assert within(sens.columns(mode, buses), np.linalg.solve(jac, unit))

    # The first Newton step against the dense solve.
    jac0, mis0 = flat_start(net, sol)
    assert within(sliced_block_lu(jac0, blocks).solve(mis0), np.linalg.solve(jac0, mis0))

    # A right-hand side carried through an elimination by per-block solves,
    # as pure Newton's steps carry their mismatch, against the kept factor
    # and the dense solve.
    carried = carried_newton_step(sol.grid, sol.v_mag, sol.v_ang, mis0)
    assert within(carried, sol.factor.solve(mis0))
    assert within(carried, np.linalg.solve(jac, mis0))


def test_solve_and_linearize_build_the_ybus_once(monkeypatch):
    net = synth30()
    calls = count_ybus_builds(monkeypatch)
    compute_sensitivity_matrix(net, solve_power_flow(net))
    assert len(calls) == 1


def test_flow_of_another_network_rejected():
    net = two_bus(q=0.1)
    sol = solved(net)
    net.buses[1].id = 7
    with pytest.raises(ValueError, match="other buses"):
        compute_sensitivity_matrix(net, sol)
