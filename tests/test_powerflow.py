import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcomm import powerflow
from gridcomm.network import (
    Branch,
    Bus,
    BusKind,
    DG,
    NetworkModel,
    Transformer,
    adjacency,
    levels,
    peripheral_levels,
    validate_network,
)
from gridcomm.powerflow import (
    GridStructure,
    StopReason,
    _injections,
    _mismatch,
    build_ybus,
    solve_power_flow,
)
from gridcomm.sensitivity import SensitivityMode, compute_sensitivity_matrix
from gridcomm.synthetic import SECONDARY_KV, SynthSpec, generate_synthetic_network

from conftest import (
    dense_jacobian,
    dense_ybus,
    frontier_blocks,
    frontier_levels,
    frontier_root,
    jacobian_at,
    ladder238,
    ladder417,
    reference_newton,
    scattered,
    sliced_block_lu,
    sliced_blocks,
    synth153,
    synth30,
    trig_jacobian,
    two_bus,
    v_of,
    ybus_pattern,
    zero_first_block_from,
)


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
    assert v_of(sol, 1) == pytest.approx(exact, abs=1e-10)
    assert v_of(sol, 0) == 1.0


def test_two_bus_general_load_matches_quartic():
    net = two_bus(p=0.3, q=0.1, r=0.0, x=0.1)
    sol = solve_power_flow(net, tolerance=1e-12)
    assert sol.converged
    assert v_of(sol, 1) == pytest.approx(analytic_two_bus(0.3, 0.1, 0.1), abs=1e-10)


def test_zero_load_flat_solution_zero_iterations():
    net = two_bus(p=0.0, q=0.0)
    sol = solve_power_flow(net)
    assert sol.converged
    assert sol.iterations == 0
    assert np.allclose(sol.v_mag, 1.0, atol=1e-12)
    assert np.allclose(sol.v_ang, 0.0, atol=1e-12)


def test_slack_only_network_converges_at_its_start():
    # No non-slack bus, so no mismatch row: the flow converges where it
    # starts, with max mismatch 0, and solves the network.
    net = NetworkModel(s_base=1.0, buses=[Bus(0, BusKind.SLACK, 12.47, v_mag=1.02)])
    sol = solve_power_flow(net)
    assert sol.converged and sol.stopped is StopReason.CONVERGED
    assert (sol.iterations, sol.factorizations, sol.max_mismatch) == (0, 0, 0.0)
    assert sol.non_slack == [] and list(sol.v_mag) == [1.02]
    assert sol.solves(net)


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
    v_base = v_of(solve_power_flow(base), 1)
    v_boost = v_of(solve_power_flow(boosted), 1)
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


def runtime_ybus(net):
    """The runtime's Y-bus of net, scattered into a dense matrix that must
    equal the stamp-by-stamp oracle bit for bit."""
    y = scattered(build_ybus(net, index_map(net)), len(net.buses))
    assert y.tobytes() == dense_ybus(net).tobytes()
    return y


def test_ybus_line_stamp():
    net = two_bus(r=0.01, x=0.1)
    rows, cols, _ = build_ybus(net, index_map(net))
    assert rows.tolist() == [0, 0, 1, 1] and cols.tolist() == [0, 1, 0, 1]
    y = runtime_ybus(net)
    series = 1.0 / complex(0.01, 0.1)
    assert y.shape == (2, 2)
    assert y[0, 1] == pytest.approx(-series)
    assert y[1, 0] == pytest.approx(-series)
    assert y[0, 0] == pytest.approx(series)
    assert y[1, 1] == pytest.approx(series)


def test_ybus_shunt_charging_splits():
    net = two_bus(r=0.01, x=0.1)
    net.branches[0].b_shunt = 0.04
    y = runtime_ybus(net)
    series = 1.0 / complex(0.01, 0.1)
    assert y[0, 0] == pytest.approx(series + 0.02j)
    assert y[1, 1] == pytest.approx(series + 0.02j)


def test_ybus_transformer_tap_asymmetry():
    net = NetworkModel(
        s_base=1.0,
        buses=[Bus(0, BusKind.SLACK, 13.8), Bus(1, BusKind.PQ, 0.48)],
        transformers=[Transformer(0, 1, 0.0, 0.1, tap=1.05)],
    )
    y = runtime_ybus(net)
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
    y = runtime_ybus(net)
    yt = 1.0 / 0.1j
    t = 1.0 * complex(math.cos(shift), math.sin(shift))
    assert y[0, 1] == pytest.approx(-yt / np.conj(t))
    assert y[1, 0] == pytest.approx(-yt / t)
    # Off-diagonals differ, so the matrix is deliberately non-symmetric here.
    assert y[0, 1] != pytest.approx(y[1, 0])


@st.composite
def shifted_networks(draw):
    """A small synthetic network with drawn taps and phase shifts on its
    transformers (an asymmetric Y-bus), line charging on some branches and
    some branches and transformers repeated in parallel, so that entries sum
    several stamps."""
    feeders = draw(st.integers(1, 2))
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    spec = SynthSpec(
        n_feeders=feeders,
        n_transformers=draw(st.integers(feeders, 4)),
        grid_rows=rows,
        grid_cols=cols,
        n_loads=rows * cols // 2,
        n_dgs=1,
        seed=draw(st.integers(0, 1000)),
    )
    net = generate_synthetic_network(spec)
    for t in net.transformers:
        t.tap, t.phase_shift = draw(st.floats(0.9, 1.1)), draw(st.floats(-0.5, 0.5))
    for br in net.branches:
        br.b_shunt = draw(st.sampled_from([0.0, 0.0, 0.02, 1e-3]))
    elements = net.branches + net.transformers
    for e in draw(st.lists(st.sampled_from(elements), max_size=4)):
        (net.branches if isinstance(e, Branch) else net.transformers).append(copy.copy(e))
    return net


@settings(max_examples=60, deadline=None)
@given(shifted_networks())
def test_sparse_ybus_scatters_to_the_dense_oracle_bit_for_bit(net):
    rows, cols, values = build_ybus(net, index_map(net))
    keys = rows * len(net.buses) + cols
    assert np.all(np.diff(keys) > 0)  # sorted by row, then column, each entry once
    assert len(values) == np.count_nonzero(runtime_ybus(net))


def test_solution_accessors():
    net = two_bus(q=0.1)
    sol = solve_power_flow(net)
    assert sol.slack_index == 0
    assert list(sol.non_slack) == [1]
    assert sol.bus_ids == [0, 1]
    sens = compute_sensitivity_matrix(net, sol)
    with pytest.raises(ValueError):
        sens.row_of(9)
    with pytest.raises(ValueError):
        sens.row_of(0)  # the slack has no sensitivity row


def test_singular_block_at_the_start_stops_the_solve(monkeypatch):
    # The same stop as a singular block mid-run, before any step.
    net = zero_first_block_from(monkeypatch, 0)
    sol = solve_power_flow(net)
    assert not sol.converged
    assert sol.stopped is StopReason.SINGULAR
    assert (sol.iterations, sol.factorizations) == (0, 0)


def test_singular_block_mid_run_ends_unconverged(monkeypatch):
    net = zero_first_block_from(monkeypatch, 1)
    sol = solve_power_flow(net)
    assert not sol.converged
    assert sol.iterations == 1
    assert sol.stopped is StopReason.SINGULAR


def nan_load(net):
    net.buses[1].p_load = float("nan")
    return net


@pytest.mark.parametrize(
    "make, reason, limit",
    [
        (synth153, StopReason.CONVERGED, None),
        (lambda: two_bus(p=100.0, q=50.0), StopReason.VOLTAGE_COLLAPSE, None),
        (lambda: nan_load(synth30()), StopReason.NON_FINITE, None),
        (synth153, StopReason.MAX_ITER, 2),
    ],
    ids=["converged", "collapse", "nan", "limit"],
)
def test_solution_says_why_it_stopped(make, reason, limit, monkeypatch):
    if limit is not None:
        monkeypatch.setattr(powerflow, "MAX_ITER", limit)
    sol = solve_power_flow(make())
    assert sol.stopped is reason
    assert sol.converged == (reason is StopReason.CONVERGED)
    if limit is not None:
        assert sol.iterations == limit


def test_collapse_reports_the_mismatch_of_the_returned_point():
    # Not the mismatch of the iterate before the collapsing step (here the
    # flat start's 100 pu).
    net = two_bus(p=100.0, q=50.0)
    sol = solve_power_flow(net)
    assert sol.stopped is StopReason.VOLTAGE_COLLAPSE
    g = sol.grid
    mis = _mismatch(g.ybus, _injections(net, g.index_of), sol.v_mag, sol.v_ang, g.non_slack_pos)
    assert sol.max_mismatch == float(np.max(np.abs(mis))) != 100.0


def test_bus_the_slack_does_not_reach_makes_the_jacobian_singular():
    # An isolated bus has a zero Jacobian row; it must land in a block and
    # stop the solve singular, not be left out of the factor.
    net = synth153()
    net.buses.append(Bus(999, BusKind.PQ, 0.48))
    sol = solve_power_flow(net)
    n1 = len(sol.grid.non_slack_pos)
    assert len(sol.grid.blocks) == 8 and n1 - 1 in sol.grid.blocks[-1]  # the isolated bus's P row
    np.testing.assert_array_equal(np.sort(np.concatenate(sol.grid.blocks)), np.arange(2 * n1))
    assert sol.stopped is StopReason.SINGULAR
    assert sol.iterations == 0


# ---------------------------------------------------------------------------
# the Jacobian against the textbook polar form


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
    grid = GridStructure.build(net)
    ns = grid.non_slack_pos
    new, oracle = dense_jacobian(grid, v, th), trig_jacobian(dense_ybus(net), v, th, ns)
    assert new.shape == oracle.shape == (2 * (N - 1), 2 * (N - 1))
    assert np.max(np.abs(new - oracle)) <= 1e-13 * np.max(np.abs(oracle))



# ---------------------------------------------------------------------------
# the scattered blocks against slices of the dense Jacobian


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, shape included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def solved_with_columns(net):
    sol = solve_power_flow(net, tolerance=1e-10)
    assert sol.converged
    sens = compute_sensitivity_matrix(net, sol)
    cols = [sens.columns(mode, sens.bus_ids) for mode in SensitivityMode]
    return sol, cols


LADDERS = [synth153, ladder238, ladder417]


@pytest.mark.parametrize("make", LADDERS, ids=["synth153", "ladder238", "ladder417"])
def test_scattered_blocks_are_slices_of_the_dense_jacobian(make):
    net = make()
    sol = solve_power_flow(net, tolerance=1e-10)
    grid = sol.grid
    assert len(grid.blocks) >= 3
    v0, th0 = grid.flat_start()
    flat = dense_jacobian(grid, v0, th0)
    for v, th, jac in ((v0, th0, flat), (sol.v_mag, sol.v_ang, jacobian_at(sol))):
        d, l, u = grid.jacobian_blocks(v, th)
        pairs = list(zip(grid.blocks, grid.blocks[1:]))
        assert len(d) == len(grid.blocks) and len(l) == len(u) == len(pairs)
        for dk, b in zip(d, grid.blocks):
            assert same(dk, jac[np.ix_(b, b)])
        for lk, uk, (a, b) in zip(l, u, pairs):
            assert same(lk, jac[np.ix_(b, a)])
            assert same(uk, jac[np.ix_(a, b)])


def test_one_block_is_the_dense_solve_bit_for_bit():
    # Fewer than BLOCK_ROWS non-slack buses: one block, where a Newton step
    # and a kept factor's solve are np.linalg.solve of the Jacobian itself.
    sol = solve_power_flow(synth30(), tolerance=1e-10)
    grid = sol.grid
    assert len(grid.blocks) == 1
    b = np.linspace(-1.0, 1.0, 2 * len(grid.non_slack_pos))
    dense = np.linalg.solve(jacobian_at(sol), b)
    assert same(grid.factor(sol.v_mag, sol.v_ang).solve(b), dense)
    assert same(sol.factor.solve(b), dense)


@pytest.mark.parametrize(
    "rows, cols, n_transformers, n_blocks",
    [(4, 6, 7, 1), (4, 6, 8, 1), (5, 6, 2, 2)],
    ids=["31-buses", "32-buses-one-level-group", "32-buses-two-blocks"],
)
def test_one_block_is_in_natural_order_however_it_is_reached(rows, cols, n_transformers, n_blocks):
    # 31 non-slack buses are too few for two blocks of BLOCK_ROWS rows. Of
    # two 32-bus networks, the levels of one never leave BLOCK_ROWS rows
    # for a second block, those of the other split into two. One block is
    # the Jacobian's rows in natural order, solved dense like
    # np.linalg.solve; a level-ordered one block would solve a permuted
    # system, and that flow collapses.
    spec = SynthSpec(n_transformers=n_transformers, grid_rows=rows, grid_cols=cols, n_loads=12, n_dgs=3)
    sol = solve_power_flow(generate_synthetic_network(spec), tolerance=1e-10)
    n1 = len(sol.grid.non_slack_pos)
    assert sol.converged and n1 == rows * cols + n_transformers
    blocks = sol.grid.blocks
    assert len(blocks) == n_blocks and min(map(len, blocks)) >= powerflow.BLOCK_ROWS
    assert (sol.factor.dense is not None) == (n_blocks == 1)
    if n_blocks == 1:
        assert same(blocks[0], np.arange(2 * n1))
        b = np.linspace(-1.0, 1.0, 2 * n1)
        assert same(sol.factor.solve(b), np.linalg.solve(jacobian_at(sol), b))


@pytest.mark.parametrize("make", LADDERS, ids=["synth153", "ladder238", "ladder417"])
def test_kept_factor_solves_like_the_dense_jacobian(make):
    # The kept inverses against np.linalg.solve of the dense Jacobian, for a
    # vector and for a matrix of columns.
    sol = solve_power_flow(make(), tolerance=1e-10)
    jac = jacobian_at(sol)
    rhs = np.random.default_rng(0).standard_normal((len(jac), 24))
    for b in (rhs[:, 0], rhs):
        oracle = np.linalg.solve(jac, b)
        got = sol.factor.solve(b)
        assert got.shape == oracle.shape
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def unit_columns(n: int, units) -> np.ndarray:
    """The n-row unit vectors at units, one column each."""
    e = np.zeros((n, len(units)))
    e[units, np.arange(len(units))] = 1.0
    return e


# A unit solve skips the forward sweep's zero columns, and a matrix product
# over fewer columns may round differently: within this share of the
# largest entry of the full solve on several blocks, bit for bit on one.
UNIT_SOLVE_TOLERANCE = 1e-14


def assert_unit_solve(factor, units, rows, n):
    oracle = factor.solve(unit_columns(n, units))[rows]
    got = factor.solve_units(np.asarray(units), rows)
    assert got.shape == oracle.shape
    if factor.dense is not None:
        assert same(got, oracle)
    else:
        assert np.max(np.abs(got - oracle), initial=0.0) <= UNIT_SOLVE_TOLERANCE * np.max(np.abs(oracle), initial=0.0)
    return got


@pytest.mark.parametrize("make", [synth30, synth153, ladder417], ids=["synth30", "synth153", "ladder417"])
def test_voltage_rows_solve_is_the_full_solve_cut_to_its_voltage_rows(make):
    # The voltage block solves only the voltage rows, against factor.solve
    # of the whole unit right-hand side. Asking for all rows, or for the
    # columns in another order, gives the same voltage rows bit for bit.
    net = make()
    sol = solve_power_flow(net, tolerance=1e-10)
    sens = compute_sensitivity_matrix(net, sol)
    n1 = len(sens.bus_ids)
    for mode in SensitivityMode:
        offset = n1 if mode is SensitivityMode.VQ else 0
        units = offset + np.arange(n1)
        block = assert_unit_solve(sol.factor, units, np.arange(n1, 2 * n1), 2 * n1)
        assert same(sens.voltage_block(mode), block)
        assert same(sens.columns(mode, sens.bus_ids)[n1:], block)
        backwards = sens.bus_ids[::-1]
        assert same(sens.columns(mode, backwards, voltage_only=True), block[:, ::-1])


@pytest.mark.parametrize("seed", range(4))
def test_unit_solve_over_blocks_with_an_unreached_bus(seed):
    # A bus the slack does not reach forms a block after the last level;
    # over those blocks a nonsingular block-tridiagonal matrix is solved for
    # unit columns anywhere, repeated and in any order, rows in any order.
    net = synth153()
    net.buses.append(Bus(999, BusKind.PQ, 0.48))
    grid = GridStructure.build(net)
    blocks = grid.blocks
    n = 2 * len(grid.non_slack_pos)
    lone = n // 2 - 1  # the appended bus's P row; its Q row is lone + n // 2
    assert len(blocks) >= 3 and {lone, lone + n // 2} <= set(blocks[-1].tolist())
    block_of = np.empty(n, dtype=int)
    for k, b in enumerate(blocks):
        block_of[b] = k
    rng = np.random.default_rng(seed)
    band = np.abs(block_of[:, None] - block_of[None, :]) <= 1
    matrix = rng.standard_normal((n, n)) * band + n * np.eye(n)
    factor = sliced_block_lu(matrix, blocks)
    for units in ([lone, lone + n // 2], rng.integers(0, n, 9), blocks[-1], blocks[0][:3]):
        for rows in (np.arange(n), np.arange(n // 2, n), rng.permutation(n)[:40]):
            assert_unit_solve(factor, units, rows, n)


@pytest.mark.parametrize("make", LADDERS, ids=["synth153", "ladder238", "ladder417"])
def test_singular_diagonal_block_raises_when_the_factor_is_built(make):
    blocks = solve_power_flow(make()).grid.blocks
    n = sum(len(b) for b in blocks)
    with pytest.raises(np.linalg.LinAlgError):
        sliced_block_lu(np.zeros((n, n)), blocks)


def test_each_block_is_inverted_by_halves_of_its_buses():
    # A block lists the P then Q rows of the first half of its buses, then
    # those of the second, and its inverse is formed from the inverses of
    # those two halves: each D'_k^-1 against np.linalg.inv of D'_k. Five
    # of ladder238's blocks hold an odd number of buses (21, 25 and 19),
    # so a half is one bus short of the other.
    sol = solve_power_flow(ladder238(), tolerance=1e-10)
    grid, factor = sol.grid, sol.factor
    n1 = len(grid.non_slack_pos)
    assert [len(b) // 2 for b in grid.blocks] == [21, 24, 25, 16, 21, 24, 21, 20, 22, 19, 24]
    d, l, _ = grid.jacobian_blocks(sol.v_mag, sol.v_ang)
    for k, rows in enumerate(grid.blocks):
        h = 2 * (len(rows) // 4)
        for half in (rows[:h], rows[h:]):
            p, q = np.split(half, 2)
            assert np.all(p < n1) and same(q - n1, p)  # one bus set's P rows, then its Q rows
        assert set(rows[:h] % n1).isdisjoint(rows[h:] % n1)
        d_prime = d[k] - l[k - 1] @ factor.x[k - 1] if k else d[k]
        oracle = np.linalg.inv(d_prime)
        assert np.max(np.abs(factor.inv[k] - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def lattice_at_x0(make):
    """make()'s network with every lattice branch (both ends secondary)
    at x = 0, which validate_network accepts."""
    net = make()
    kv = {b.id: b.base_kv for b in net.buses}
    for br in net.branches:
        if kv[br.from_bus] == kv[br.to_bus] == SECONDARY_KV:
            br.x = 0.0
    assert validate_network(net) == []
    return net


@pytest.mark.parametrize("make", LADDERS, ids=["synth153", "ladder238", "ladder417"])
def test_a_lattice_of_resistive_branches_converges(make):
    # With every lattice branch at x = 0, dP/dtheta is zero on the lattice
    # buses at the flat start: a block split between its P and Q rows would
    # meet a singular half there. Split between buses, each bus's P and Q
    # rows on one side, the solve converges, and its kept factor solves
    # like np.linalg.solve of the dense Jacobian.
    sol = solve_power_flow(lattice_at_x0(make), tolerance=1e-10)
    assert sol.converged and len(sol.grid.blocks) >= 3
    jac = jacobian_at(sol)
    rhs = np.random.default_rng(0).standard_normal((len(jac), 24))
    for b in (rhs[:, 0], rhs):
        oracle = np.linalg.solve(jac, b)
        assert np.max(np.abs(sol.factor.solve(b) - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("make", LADDERS, ids=["synth153", "ladder238", "ladder417"])
def test_newton_and_columns_match_blocks_sliced_from_the_dense_jacobian(make, monkeypatch):
    # Every Jacobian, in Newton and at the solved point, as blocks sliced
    # out of the dense Jacobian: the same iterations, voltages and
    # sensitivity columns, bit for bit. The factor holds compact arrays,
    # none a view into a larger buffer.
    net = make()
    sol, cols = solved_with_columns(net)
    factor = sol.factor
    for a in factor.inv + factor.l + factor.x:
        assert (a if a.base is None else a.base).nbytes == a.nbytes

    def sliced(grid, v, th):
        return sliced_blocks(dense_jacobian(grid, v, th), grid.blocks)

    monkeypatch.setattr(powerflow.GridStructure, "jacobian_blocks", sliced)
    ref, ref_cols = solved_with_columns(net)
    assert ref.iterations == sol.iterations
    assert same(ref.v_mag, sol.v_mag) and same(ref.v_ang, sol.v_ang)
    for c, r in zip(cols, ref_cols):
        assert same(c, r)


# ---------------------------------------------------------------------------
# the pattern from the Y-bus's entries and the blocks from the network's
# adjacency, against the dense Y-bus


@st.composite
def altered_networks(draw):
    """A synthetic network of one block or of several (at least 64
    non-slack buses), with some branches and transformers repeated in
    parallel and some dropped, at times every one that ends at a drawn bus,
    which cuts that bus off."""
    several = draw(st.booleans())
    side = st.integers(8, 9) if several else st.integers(2, 4)
    rows, cols = draw(side), draw(side)
    feeders = draw(st.integers(1, 2))
    spec = SynthSpec(
        n_feeders=feeders,
        n_transformers=draw(st.integers(feeders, 4)),
        grid_rows=rows,
        grid_cols=cols,
        n_loads=rows * cols // 2,
        n_dgs=1,
        seed=draw(st.integers(0, 1000)),
    )
    net = generate_synthetic_network(spec)
    elements = net.branches + net.transformers
    elements += [copy.copy(elements[i]) for i in draw(st.lists(st.integers(0, len(elements) - 1), max_size=4))]
    dropped = draw(st.sets(st.integers(0, len(elements) - 1), max_size=5))
    lone = draw(st.none() | st.sampled_from([b.id for b in net.buses[1:]]))
    ends = [(e.from_bus, e.to_bus) if isinstance(e, Branch) else (e.primary_bus, e.secondary_bus) for e in elements]
    dropped |= {i for i, pair in enumerate(ends) if lone in pair}
    kept = [e for i, e in enumerate(elements) if i not in dropped]
    net.branches = [e for e in kept if isinstance(e, Branch)]
    net.transformers = [e for e in kept if isinstance(e, Transformer)]
    return net


@settings(max_examples=100, deadline=None)
@given(altered_networks())
def test_pattern_blocks_and_levels_match_the_dense_ybus(net):
    # The Jacobian's pattern and Y values are the sparse Y-bus's entries
    # with both ends non-slack, in its order; every bus has a diagonal
    # entry, 0 at a bus no element touches. Validation and the blocks read
    # the one adjacency. The dense Y-bus's nonzeros and a frontier sweep
    # over them must give the same, connected or not.
    grid, ybus = GridStructure.build(net), dense_ybus(net)
    ns = grid.non_slack_pos
    rows, cols, values = build_ybus(net, grid.index_of)
    diagonal = rows == cols
    assert same(rows[diagonal], np.arange(len(net.buses))) and same(values[diagonal], np.diag(ybus))
    near = adjacency(net)
    assert all(values[diagonal][i] == 0 for i, b in enumerate(net.buses) if not near[b.id])
    kept = (rows != grid.slack_index) & (cols != grid.slack_index)
    assert same(ns[grid.pattern[0]], rows[kept]) and same(ns[grid.pattern[1]], cols[kept])
    assert same(grid.y_at, values[kept])
    assert all(map(same, grid.pattern, ybus_pattern(ybus, ns)))
    expected = frontier_blocks(ybus, grid.slack_index, ns, grid.bus_ids)
    assert len(grid.blocks) == len(expected) and all(map(same, grid.blocks, expected))

    def by_id(level):
        return {grid.bus_ids[i]: int(k) for i, k in enumerate(level) if k >= 0}

    reached = by_id(frontier_levels(ybus, grid.slack_index))
    assert levels(near, net.slack_bus.id) == reached
    root = frontier_root(ybus, grid.slack_index, grid.bus_ids)
    assert peripheral_levels(near, net.slack_bus.id) == by_id(frontier_levels(ybus, root))
    codes = {v.code for v in validate_network(net)}
    assert codes == ({"disconnected"} if len(reached) < len(net.buses) else set())


# ---------------------------------------------------------------------------
# re-solves that reuse the grid structure


SYNTH153 = synth153()
N153 = len(SYNTH153.buses)


def rename_last_bus(net):
    old = net.buses[-1].id
    new = max(b.id for b in net.buses) + 1
    net.buses[-1].id = new
    for br in net.branches:
        br.from_bus, br.to_bus = (new if x == old else x for x in (br.from_bus, br.to_bus))
    for tr in net.transformers:
        tr.primary_bus, tr.secondary_bus = (new if x == old else x for x in (tr.primary_bus, tr.secondary_bus))
    for d in net.dgs:
        d.bus = new if d.bus == old else d.bus


def add_bus(net):
    new = max(b.id for b in net.buses) + 1
    net.buses.append(Bus(new, BusKind.PQ, net.buses[-1].base_kv, p_load=0.01, q_load=0.005))
    net.branches.append(Branch(net.buses[-2].id, new, 0.01, 0.02))


def move_branch_end(net):
    # The mesh branch 151-152 becomes 151-140; 152 keeps its branch to 140.
    assert (net.branches[-1].from_bus, net.branches[-1].to_bus) == (151, 152)
    net.branches[-1].to_bus = 140


def move_slack(net):
    # The slack role passes to the next bus, whose v_mag and v_ang equal the
    # old slack's: only the slack's position changes.
    old, new = net.buses[0], net.buses[1]
    assert old.kind is BusKind.SLACK and (old.v_mag, old.v_ang) == (new.v_mag, new.v_ang)
    old.kind, new.kind = BusKind.PQ, BusKind.SLACK


GRID_CHANGES = {
    "branch_r": lambda net: setattr(net.branches[3], "r", net.branches[3].r * 1.1),
    "branch_x": lambda net: setattr(net.branches[3], "x", net.branches[3].x * 0.9),
    "tap": lambda net: setattr(net.transformers[1], "tap", 1.025),
    "phase_shift": lambda net: setattr(net.transformers[1], "phase_shift", 0.01),
    "bus_added": add_bus,
    "bus_renamed": rename_last_bus,
    "slack_v_mag": lambda net: setattr(net.slack_bus, "v_mag", net.slack_bus.v_mag + 0.01),
    "slack_v_ang": lambda net: setattr(net.slack_bus, "v_ang", 0.02),
    "branch_b_shunt": lambda net: setattr(net.branches[3], "b_shunt", net.branches[3].b_shunt + 0.01),
    "branch_endpoint": move_branch_end,
    "transformer_r": lambda net: setattr(net.transformers[1], "r", net.transformers[1].r * 1.1),
    "transformer_x": lambda net: setattr(net.transformers[1], "x", net.transformers[1].x * 0.9),
    "branch_removed": lambda net: net.branches.pop(),
    "transformer_endpoint": lambda net: setattr(net.transformers[1], "secondary_bus", 30),
    "slack_moved": move_slack,
    "buses_reordered": lambda net: net.buses.insert(5, net.buses.pop(6)),
}


def outcome(sol):
    """Everything a flow reports, as bytes where it is an array."""
    factor = sol.factor.solve(np.eye(2 * len(sol.grid.non_slack_pos))[:, :7]) if sol.converged else None
    return (
        sol.iterations,
        sol.converged,
        sol.max_mismatch,
        sol.bus_ids,
        sol.v_mag.tobytes(),
        sol.v_ang.tobytes(),
        None if factor is None else factor.tobytes(),
    )


@pytest.mark.parametrize("change", [None, *GRID_CHANGES])
@settings(max_examples=6, deadline=None)
@given(
    loads=st.lists(st.tuples(st.integers(0, N153 - 1), st.floats(-0.05, 0.2)), max_size=6),
    trips=st.lists(st.integers(0, len(SYNTH153.dgs) - 1), max_size=4),
)
def test_resolve_reusing_the_structure_equals_a_fresh_solve(change, loads, trips):
    # On an unchanged grid the re-solve starts warm from before and agrees
    # with the flat-start solve within the tolerance's bound; on a changed
    # grid it starts flat, bit for bit the solve without previous.
    net = copy.deepcopy(SYNTH153)
    before = solve_power_flow(net)
    for i, dp in loads:
        net.buses[i].p_load += dp
    for i in trips:
        net.dgs[i].online = False
    if change is not None:
        GRID_CHANGES[change](net)
    again = solve_power_flow(net, previous=before)
    assert (again.grid is before.grid) == (change is None)
    cold = solve_power_flow(net)
    if change is not None:
        assert outcome(again) == outcome(cold)
        return
    assert again.converged == cold.converged
    if again.converged:
        bound = agreement_bound(net, again, cold)
        assert np.max(np.abs(again.v_mag - cold.v_mag)) <= bound
        assert np.max(np.abs(again.v_ang - cold.v_ang)) <= bound


def lender(kind, net, monkeypatch):
    """A flow of net (or of a changed grid) that has nothing to lend a
    warm re-solve of net."""
    if kind == "unconverged":
        with monkeypatch.context() as m:
            m.setattr(powerflow, "MAX_ITER", 2)
            return solve_power_flow(net)
    if kind == "other_grid":
        other = copy.deepcopy(net)
        GRID_CHANGES["branch_r"](other)
        return solve_power_flow(other)
    return solve_power_flow(net, tolerance=1e3)  # converged at the flat start, no step taken


@pytest.mark.parametrize("kind", ["unconverged", "other_grid", "no_step"])
def test_a_resolve_with_nothing_to_lend_starts_flat(kind, monkeypatch):
    net = copy.deepcopy(SYNTH153)
    previous = lender(kind, net, monkeypatch)
    assert previous.converged == (kind != "unconverged")
    assert (previous.warm_factor is None) == (kind == "no_step")
    assert outcome(solve_power_flow(net, previous=previous)) == outcome(solve_power_flow(net))


# ---------------------------------------------------------------------------
# chord steps against pure Newton


CHORD_NETS = {"synth153": SYNTH153, "ladder238": ladder238()}


def agreement_bound(net, sol, ref) -> float:
    """How far two flows of net that both meet the tolerance test may lie
    apart. With F the mismatch and x = (v_ang, v_mag) on the non-slack
    buses, F(a) - F(b) = J (a - b) to first order, so |a - b| <= ||J^-1||
    (|F(a)| + |F(b)|) in the infinity norm; each |F| is the reported max
    mismatch plus the rounding of its evaluation, at most 16 eps of the
    largest sum of |terms| in a bus's injection. The factor 2 covers the
    second-order term, which |a - b| near 1e-9 makes negligible."""
    jinv_norm = np.max(np.sum(np.abs(np.linalg.inv(jacobian_at(sol))), axis=1))
    v = sol.v_mag
    terms = np.abs(_injections(net, sol.index_of)) + v * (np.abs(dense_ybus(net)) @ v)
    rounding = 16 * np.finfo(float).eps * np.max(terms)
    return 2 * jinv_norm * (sol.max_mismatch + ref.max_mismatch + 2 * rounding)


# ladder238 at 4.5 times its loads is past the nose: pure Newton runs out of
# steps, and the chord solve stops on a collapsed voltage.
COLLAPSING = ("ladder238", 4.5, [], [])
# Past the nose the two solves wander on different paths: here pure Newton
# collapses after 19 steps, the chord solve after 33 steps and 31
# factorizations.
WANDERING = ("synth153", 7.5, [(91, 0.75)], [])


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CHORD_NETS)),
    scale=st.floats(0.5, 10.0),
    steps=st.lists(st.tuples(st.integers(1, N153 - 1), st.floats(0.0, 2.0)), max_size=4),
    trips=st.lists(st.integers(0, len(SYNTH153.dgs) - 1), max_size=4),
)
@example(*COLLAPSING)
@example(*WANDERING)
def test_chord_steps_agree_with_pure_newton(name, scale, steps, trips):
    # Loads scaled past the nose of the PV curve, load steps and DG trips,
    # on networks of several blocks: the chord solve converges exactly when
    # pure Newton does. When both converge, both meet the tolerance, its
    # factorizations are no more than Newton's steps and the voltages agree
    # within the bound.
    net = copy.deepcopy(CHORD_NETS[name])
    assert len(solve_power_flow(CHORD_NETS[name]).grid.blocks) > 1
    for b in net.buses:
        b.p_load *= scale
        b.q_load *= scale
    for i, dp in steps:
        net.buses[i].p_load += dp
    for i in trips:
        net.dgs[i].online = False
    sol, ref = solve_power_flow(net), reference_newton(net)
    assert sol.converged == ref.converged
    if sol.converged:
        assert sol.factorizations <= ref.iterations
        assert max(sol.max_mismatch, ref.max_mismatch) <= sol.tolerance
        bound = agreement_bound(net, sol, ref)
        assert np.max(np.abs(sol.v_mag - ref.v_mag)) <= bound
        assert np.max(np.abs(sol.v_ang - ref.v_ang)) <= bound


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CHORD_NETS)),
    scale=st.floats(0.5, 6.0),
    steps=st.lists(st.tuples(st.integers(1, N153 - 1), st.floats(0.0, 2.0)), max_size=4),
    trips=st.lists(st.integers(0, len(SYNTH153.dgs) - 1), max_size=4),
    read=st.booleans(),
)
@example(*COLLAPSING, False)
@example(*WANDERING, True)
def test_warm_resolve_agrees_with_pure_newton(name, scale, steps, trips, read):
    # A re-solve after load steps (some past the nose) and DG trips starts
    # at the earlier flow's voltages, on its solved-point factor if that
    # was read and otherwise on its last step's factor; it converges
    # exactly when pure Newton from the flat start does, and then both
    # meet the tolerance and agree within the bound.
    net = copy.deepcopy(CHORD_NETS[name])
    before = solve_power_flow(net)
    last_step = before.warm_factor
    assert last_step is not None
    if read:
        assert before.factor is before.warm_factor is not last_step
    for b in net.buses:
        b.p_load *= scale
        b.q_load *= scale
    for i, dp in steps:
        net.buses[i].p_load += dp
    for i in trips:
        net.dgs[i].online = False
    sol, ref = solve_power_flow(net, previous=before), reference_newton(net)
    assert sol.grid is before.grid
    assert sol.converged == ref.converged
    if sol.converged:
        assert max(sol.max_mismatch, ref.max_mismatch) <= sol.tolerance
        bound = agreement_bound(net, sol, ref)
        assert np.max(np.abs(sol.v_mag - ref.v_mag)) <= bound
        assert np.max(np.abs(sol.v_ang - ref.v_ang)) <= bound
