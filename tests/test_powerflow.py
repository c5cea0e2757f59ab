import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcomm import powerflow
from gridcomm.network import Branch, Bus, BusKind, DG, NetworkModel, Transformer
from gridcomm.powerflow import SingularJacobianError, _jacobian, _pattern, build_ybus, solve_power_flow
from gridcomm.sensitivity import compute_sensitivity_matrix
from gridcomm.synthetic import SynthSpec, generate_synthetic_network

from conftest import synth153, synth30, two_bus


def analytic_two_bus(p, q, x):
    """Exact receiving-end voltage for a lossless two-bus line.

    From the bus power balance with V1 = 1: the magnitude satisfies
    V^4 - (1 - 2 q x) V^2 + x^2 (p^2 + q^2) = 0, take the high root.
    """
    inner = (1.0 - 2.0 * q * x) ** 2 - 4.0 * x * x * (p * p + q * q)
    return math.sqrt((1.0 - 2.0 * q * x + math.sqrt(inner)) / 2.0)


def test_two_bus_reactive_load_matches_closed_form():
    net = two_bus(p=0.0, q=0.1, r=0.0, x=0.1)
    sol = solve_power_flow(net, tolerance=1e-12)
    assert sol.converged
    exact = (1.0 + math.sqrt(0.96)) / 2.0
    assert sol.v_of(1) == pytest.approx(exact, abs=1e-10)
    assert sol.v_of(0) == 1.0


def test_two_bus_general_load_matches_quartic():
    net = two_bus(p=0.3, q=0.1, r=0.0, x=0.1)
    sol = solve_power_flow(net, tolerance=1e-12)
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
    sol = solve_power_flow(net, tolerance=1e-10)
    assert sol.converged
    assert sol.tolerance == 1e-10
    assert sol.max_mismatch <= sol.tolerance


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


def zero_first_block_from(monkeypatch, first_call: int):
    """From the given _jacobian call on (0 = the flat start), Newton sees
    synth153's Jacobian with its first diagonal block zeroed."""
    net = synth153()
    block = solve_power_flow(net).blocks[0]
    real, calls = powerflow._jacobian, []

    def jacobian(*args):
        jac = real(*args)
        if len(calls) >= first_call:
            jac[np.ix_(block, block)] = 0.0
        calls.append(1)
        return jac

    monkeypatch.setattr(powerflow, "_jacobian", jacobian)
    return net


def test_singular_block_at_the_start_raises(monkeypatch):
    net = zero_first_block_from(monkeypatch, 0)
    with pytest.raises(SingularJacobianError):
        solve_power_flow(net)


def test_singular_block_mid_run_ends_unconverged(monkeypatch):
    net = zero_first_block_from(monkeypatch, 1)
    sol = solve_power_flow(net)
    assert not sol.converged
    assert sol.iterations == 1


def test_bus_the_slack_does_not_reach_makes_the_jacobian_singular():
    # An isolated bus has a zero Jacobian row; it must land in a block and
    # raise, not be left out of the factor.
    net = synth153()
    net.buses.append(Bus(999, BusKind.PQ, 0.48))
    with pytest.raises(SingularJacobianError):
        solve_power_flow(net)


# ---------------------------------------------------------------------------
# the Jacobian against the textbook polar form


def trig_jacobian(ybus, v, th, ns):
    """The polar Jacobian from the four cos/sin blocks of the power-flow
    equations (as in Grainger & Stevenson), on the non-slack buses."""
    vc = v * np.exp(1j * th)
    s = vc * np.conj(ybus @ vc)
    p_calc, q_calc = s.real, s.imag
    g, b = ybus.real, ybus.imag
    dth = th[:, None] - th[None, :]
    cs, sn = np.cos(dth), np.sin(dth)
    vv = v[:, None] * v[None, :]

    h = vv * (g * sn - b * cs)  # dP/dtheta
    n_ = v[:, None] * (g * cs + b * sn)  # dP/dV
    k = -vv * (g * cs + b * sn)  # dQ/dtheta
    l_ = v[:, None] * (g * sn - b * cs)  # dQ/dV

    np.fill_diagonal(h, -q_calc - b.diagonal() * v * v)
    np.fill_diagonal(n_, p_calc / v + g.diagonal() * v)
    np.fill_diagonal(k, p_calc - g.diagonal() * v * v)
    np.fill_diagonal(l_, q_calc / v - b.diagonal() * v)

    top = np.hstack([h[np.ix_(ns, ns)], n_[np.ix_(ns, ns)]])
    bot = np.hstack([k[np.ix_(ns, ns)], l_[np.ix_(ns, ns)]])
    return np.vstack([top, bot])


SYNTH30 = synth30()
N, M = len(SYNTH30.buses), len(SYNTH30.transformers)


def arrays(low, high, size):
    return st.lists(st.floats(low, high), min_size=size, max_size=size).map(np.array)


@settings(max_examples=100, deadline=None)
@given(v=arrays(0.8, 1.2, N), th=arrays(-0.5, 0.5, N), taps=arrays(0.9, 1.1, M), shifts=arrays(-0.5, 0.5, M))
def test_jacobian_matches_trig_form_off_the_solution(v, th, taps, shifts):
    # Any voltages, taps and phase shifts (an asymmetric Y-bus): the complex
    # form is an identity, not a property of converged points.
    net = copy.deepcopy(SYNTH30)
    for t, tap, shift in zip(net.transformers, taps, shifts):
        t.tap, t.phase_shift = float(tap), float(shift)
    ybus = build_ybus(net, index_map(net))
    ns = np.array([i for i, b in enumerate(net.buses) if b.kind is not BusKind.SLACK])
    new, oracle = _jacobian(ybus, v, th, ns, _pattern(ybus != 0, ns)), trig_jacobian(ybus, v, th, ns)
    assert new.shape == oracle.shape == (2 * (N - 1), 2 * (N - 1))
    assert np.max(np.abs(new - oracle)) <= 1e-13 * np.max(np.abs(oracle))

