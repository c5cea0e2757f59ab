import copy

import numpy as np
import pytest

from gridcomm.network import DG
from gridcomm.network_io import load_network
from gridcomm.powerflow import _jacobian, build_ybus, solve_power_flow
from gridcomm.sensitivity import SensitivityMode, compute_sensitivity_matrix, dg_columns
from gridcomm.synthetic import SynthSpec, generate_synthetic_network

from conftest import FIXTURES, count_ybus_builds, synth30, two_bus


TOLERANCE = 1e-12


def solved(net):
    sol = solve_power_flow(net, tolerance=TOLERANCE)
    assert sol.converged
    return sol


def test_two_bus_shapes_and_positive_vq_diagonal():
    net = two_bus(q=0.1)
    sens = compute_sensitivity_matrix(net, solved(net))
    assert sens.bus_ids == [1]
    for block in (sens.a_theta_p, sens.a_theta_q, sens.a_vp, sens.a_vq):
        assert block.shape == (1, 1)
    # More reactive injection must raise the local voltage.
    assert sens.a_vq[0, 0] > 0


def test_blocks_shape_on_synthetic():
    net = generate_synthetic_network(SynthSpec(seed=2))
    sens = compute_sensitivity_matrix(net, solved(net))
    n1 = len(net.buses) - 1
    assert len(sens.bus_ids) == n1
    assert sens.bus_ids == sorted(sens.bus_ids)
    for block in (sens.a_theta_p, sens.a_theta_q, sens.a_vp, sens.a_vq):
        assert block.shape == (n1, n1)


def test_vq_column_matches_finite_difference():
    net = generate_synthetic_network(SynthSpec(seed=0))
    base = solved(net)
    sens = compute_sensitivity_matrix(net, base)

    bus = sens.bus_ids[len(sens.bus_ids) // 2]
    h = 1e-4
    bumped = copy.deepcopy(net)
    bumped.bus_by_id(bus).q_load -= h
    after = solved(bumped)

    col = sens.row_of(bus)
    for i, bid in enumerate(sens.bus_ids):
        predicted = base.v_of(bid) + h * sens.a_vq[i, col]
        assert predicted == pytest.approx(after.v_of(bid), abs=1e-5)


def test_vp_column_matches_finite_difference():
    net = generate_synthetic_network(SynthSpec(seed=5))
    base = solved(net)
    sens = compute_sensitivity_matrix(net, base)

    bus = sens.bus_ids[3]
    h = 1e-4
    bumped = copy.deepcopy(net)
    bumped.bus_by_id(bus).p_load -= h
    after = solved(bumped)

    col = sens.row_of(bus)
    for i, bid in enumerate(sens.bus_ids):
        predicted = base.v_of(bid) + h * sens.a_vp[i, col]
        assert predicted == pytest.approx(after.v_of(bid), abs=1e-5)


def test_angle_row_zero_for_slack():
    net = two_bus(q=0.1)
    sens = compute_sensitivity_matrix(net, solved(net))
    row = sens.angle_row(0, SensitivityMode.VQ)
    assert row.shape == (1,)
    assert np.all(row == 0.0)
    assert sens.angle_row(1, SensitivityMode.VQ)[0] == sens.a_theta_q[0, 0]


def test_mode_selects_block():
    net = two_bus(p=0.2, q=0.1)
    sens = compute_sensitivity_matrix(net, solved(net))
    assert sens.voltage_block(SensitivityMode.VQ) is sens.a_vq
    assert sens.voltage_block(SensitivityMode.VP) is sens.a_vp
    assert sens.angle_block(SensitivityMode.VQ) is sens.a_theta_q
    assert sens.angle_block(SensitivityMode.VP) is sens.a_theta_p


def test_unconverged_solution_rejected():
    net = two_bus(p=100.0, q=50.0)
    sol = solve_power_flow(net)
    assert not sol.converged
    with pytest.raises(ValueError):
        compute_sensitivity_matrix(net, sol)


def test_dg_columns_slice_and_order():
    net = generate_synthetic_network(SynthSpec(seed=0))
    sens = compute_sensitivity_matrix(net, solved(net))
    cols = dg_columns(sens, net, SensitivityMode.VQ)
    dgs = net.dgs_sorted()
    assert cols.dg_ids == [d.id for d in dgs]
    assert cols.matrix.shape == (len(sens.bus_ids), len(dgs))
    for j, d in enumerate(dgs):
        np.testing.assert_array_equal(cols.matrix[:, j], sens.a_vq[:, sens.row_of(d.bus)])


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
    assert cols.dg_ids == []


@pytest.mark.parametrize("make", [lambda: load_network(FIXTURES / "net6.json"), synth30], ids=["net6", "synth30"])
def test_blocks_are_the_inverse_of_a_freshly_built_jacobian(make):
    # The Jacobian taken from a fresh Y-bus of the network, as sensitivities
    # were once computed, inverts to the same bits as the solution's own.
    net = make()
    sol = solved(net)
    sens = compute_sensitivity_matrix(net, sol)
    ns = np.array([sol.index_of[b] for b in sens.bus_ids], dtype=int)
    ybus = build_ybus(net, sol.index_of)
    inv = np.linalg.inv(_jacobian(ybus, sol.v_mag, sol.v_ang, ns))
    n1 = len(ns)
    np.testing.assert_array_equal(sens.a_theta_p, inv[:n1, :n1])
    np.testing.assert_array_equal(sens.a_theta_q, inv[:n1, n1:])
    np.testing.assert_array_equal(sens.a_vp, inv[n1:, :n1])
    np.testing.assert_array_equal(sens.a_vq, inv[n1:, n1:])


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
