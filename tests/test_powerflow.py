import math

import numpy as np
import pytest

from gridcomm.network import Branch, Bus, BusKind, DG, NetworkModel, Transformer
from gridcomm.powerflow import PowerFlowOptions, build_ybus, solve_power_flow
from gridcomm.sensitivity import compute_sensitivity_matrix
from gridcomm.synthetic import SynthSpec, generate_synthetic_network

from conftest import two_bus


def analytic_two_bus(p, q, x):
    """Exact receiving-end voltage for a lossless two-bus line.

    From the bus power balance with V1 = 1: the magnitude satisfies
    V^4 - (1 - 2 q x) V^2 + x^2 (p^2 + q^2) = 0, take the high root.
    """
    inner = (1.0 - 2.0 * q * x) ** 2 - 4.0 * x * x * (p * p + q * q)
    return math.sqrt((1.0 - 2.0 * q * x + math.sqrt(inner)) / 2.0)


def test_two_bus_reactive_load_matches_closed_form():
    net = two_bus(p=0.0, q=0.1, r=0.0, x=0.1)
    sol = solve_power_flow(net, PowerFlowOptions(tolerance=1e-12))
    assert sol.converged
    exact = (1.0 + math.sqrt(0.96)) / 2.0
    assert sol.v_of(1) == pytest.approx(exact, abs=1e-10)
    assert sol.v_of(0) == 1.0


def test_two_bus_general_load_matches_quartic():
    net = two_bus(p=0.3, q=0.1, r=0.0, x=0.1)
    sol = solve_power_flow(net, PowerFlowOptions(tolerance=1e-12))
    assert sol.converged
    assert sol.v_of(1) == pytest.approx(analytic_two_bus(0.3, 0.1, 0.1), abs=1e-10)


def test_zero_load_flat_solution_zero_iterations():
    net = two_bus(p=0.0, q=0.0)
    sol = solve_power_flow(net)
    assert sol.converged
    assert sol.iterations == 0
    assert np.allclose(sol.v_mag, 1.0, atol=1e-12)
    assert np.allclose(sol.v_ang, 0.0, atol=1e-12)


def test_absurd_load_reports_divergence_without_raising():
    net = two_bus(p=100.0, q=50.0)
    sol = solve_power_flow(net)
    assert not sol.converged


def test_mismatch_below_tolerance():
    net = generate_synthetic_network(SynthSpec(seed=4))
    opts = PowerFlowOptions(tolerance=1e-10)
    sol = solve_power_flow(net, opts)
    assert sol.converged
    assert sol.max_mismatch <= opts.tolerance


def test_dg_injection_raises_voltage():
    base = two_bus(p=0.3, q=0.1)
    boosted = two_bus(p=0.3, q=0.1, with_dg=True)
    boosted.dgs[0].q_out = 0.08
    v_base = solve_power_flow(base).v_of(1)
    v_boost = solve_power_flow(boosted).v_of(1)
    assert v_boost > v_base


def test_offline_dg_is_ignored():
    plain = two_bus(p=0.3, q=0.1)
    tripped = two_bus(p=0.3, q=0.1, with_dg=True)
    tripped.dgs[0].q_out = 0.08
    tripped.dgs[0].online = False
    a = solve_power_flow(plain)
    b = solve_power_flow(tripped)
    assert np.allclose(a.v_mag, b.v_mag, atol=1e-12)


def index_map(net):
    return {b.id: i for i, b in enumerate(net.buses)}


def test_ybus_line_stamp():
    net = two_bus(r=0.01, x=0.1)
    y = build_ybus(net, index_map(net))
    series = 1.0 / complex(0.01, 0.1)
    assert y.shape == (2, 2)
    assert y[0, 1] == pytest.approx(-series)
    assert y[1, 0] == pytest.approx(-series)
    assert y[0, 0] == pytest.approx(series)
    assert y[1, 1] == pytest.approx(series)


def test_ybus_shunt_charging_splits():
    net = two_bus(r=0.01, x=0.1)
    net.branches[0].b_shunt = 0.04
    y = build_ybus(net, index_map(net))
    series = 1.0 / complex(0.01, 0.1)
    assert y[0, 0] == pytest.approx(series + 0.02j)
    assert y[1, 1] == pytest.approx(series + 0.02j)


def test_ybus_transformer_tap_asymmetry():
    net = NetworkModel(
        s_base=1.0,
        buses=[Bus(0, BusKind.SLACK, 13.8), Bus(1, BusKind.PQ, 0.48)],
        transformers=[Transformer(0, 1, 0.0, 0.1, tap=1.05)],
    )
    y = build_ybus(net, index_map(net))
    yt = 1.0 / 0.1j
    assert y[0, 0] == pytest.approx(yt / 1.05**2)
    assert y[1, 1] == pytest.approx(yt)
    assert y[0, 1] == pytest.approx(-yt / 1.05)
    assert y[1, 0] == pytest.approx(-yt / 1.05)


def test_phase_shifter_conjugate_coupling():
    shift = math.radians(30.0)
    net = NetworkModel(
        s_base=1.0,
        buses=[Bus(0, BusKind.SLACK, 13.8), Bus(1, BusKind.PQ, 0.48)],
        transformers=[Transformer(0, 1, 0.0, 0.1, tap=1.0, phase_shift=shift)],
    )
    y = build_ybus(net, index_map(net))
    yt = 1.0 / 0.1j
    t = 1.0 * complex(math.cos(shift), math.sin(shift))
    assert y[0, 1] == pytest.approx(-yt / np.conj(t))
    assert y[1, 0] == pytest.approx(-yt / t)
    # Off-diagonals differ, so the matrix is deliberately non-symmetric here.
    assert y[0, 1] != pytest.approx(y[1, 0])


def test_solution_accessors():
    net = two_bus(q=0.1)
    sol = solve_power_flow(net)
    assert sol.slack_index == 0
    assert list(sol.non_slack) == [1]
    assert sol.bus_ids == [0, 1]
    sens = compute_sensitivity_matrix(net, sol)
    for lookup in (sol.v_of, sens.row_of):
        with pytest.raises(ValueError):
            lookup(9)
    with pytest.raises(ValueError):
        sens.row_of(0)  # the slack has no sensitivity row


def test_flat_start_false_reuses_stored_voltages():
    net = two_bus(p=0.3, q=0.1)
    warm = solve_power_flow(net, PowerFlowOptions(tolerance=1e-12))
    net.buses[1].v_mag = float(warm.v_of(1))
    net.buses[1].v_ang = float(warm.v_ang[1])
    again = solve_power_flow(net, PowerFlowOptions(tolerance=1e-12, flat_start=False))
    assert again.converged
    assert again.iterations <= warm.iterations
