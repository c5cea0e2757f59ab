"""Shared fixtures and independent oracles.

The networks built here are pinned: tests assert properties that were
verified by hand against these exact parameter values, so changing a number
means re-deriving the expectations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gridcomm import powerflow
from gridcomm.control import CommunityView, ControlDirection, LinearProgram
from gridcomm.network import Branch, Bus, BusKind, DG, NetworkModel
from gridcomm.network_io import load_network
from gridcomm.partition import Partition, WeightedGraph, modularity, partition_network
from gridcomm.powerflow import BlockLU, GridStructure, PowerFlowSolution, solve_power_flow
from gridcomm.sensitivity import compute_sensitivity_matrix
from gridcomm.simplex import TOL as SIMPLEX_TOL, LPResult, LPStatus
from gridcomm.synthetic import SynthSpec, generate_synthetic_network

FIXTURES = Path(__file__).parent / "fixtures"


def count_ybus_builds(monkeypatch) -> list:
    """Record one entry per build_ybus call, through whichever gridcomm
    module name it is called."""
    real = powerflow.build_ybus
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gridcomm") and getattr(module, "build_ybus", None) is real:
            monkeypatch.setattr(module, "build_ybus", counted)
    return calls


def dense_ybus(net: NetworkModel) -> np.ndarray:
    """The dense complex bus admittance matrix, in bus order, stamp by
    stamp: the oracle of the runtime's ``build_ybus`` nonzeros. Transformers
    use the standard pi model with complex ratio a = tap * exp(j*phase_shift)
    on the primary side."""
    index_of = {b.id: i for i, b in enumerate(net.buses)}
    n = len(net.buses)
    y = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        i, j = index_of[br.from_bus], index_of[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        ysh = 0.5j * br.b_shunt
        y[i, i] += ys + ysh
        y[j, j] += ys + ysh
        y[i, j] -= ys
        y[j, i] -= ys
    for tr in net.transformers:
        p, s = index_of[tr.primary_bus], index_of[tr.secondary_bus]
        ys = 1.0 / complex(tr.r, tr.x)
        a = tr.tap * np.exp(1j * tr.phase_shift)
        y[p, p] += ys / (tr.tap * tr.tap)
        y[p, s] += -ys / np.conj(a)
        y[s, p] += -ys / a
        y[s, s] += ys
    return y


def scattered(ybus: tuple, n: int) -> np.ndarray:
    """The runtime's Y-bus nonzeros (rows, columns, values) as a dense n x n
    matrix."""
    y = np.zeros((n, n), dtype=complex)
    rows, cols, values = ybus
    y[rows, cols] = values
    return y


def dense_jacobian(grid: GridStructure, v: np.ndarray, th: np.ndarray) -> np.ndarray:
    """The dense polar Jacobian on grid's non-slack rows and columns: zero
    but for the runtime's ``_jacobian_values`` at their ``_entries``, the
    values the solver scatters into its blocks."""
    n1 = len(grid.non_slack_pos)
    jac = np.zeros((2 * n1, 2 * n1))
    jac[powerflow._entries(grid.pattern, n1)] = powerflow._jacobian_values(grid, v, th)
    return jac


def trig_jacobian(ybus: np.ndarray, v: np.ndarray, th: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """The polar Jacobian from the four cos/sin blocks of the power-flow
    equations (as in Grainger & Stevenson) over a dense Y-bus, on the
    non-slack positions ns."""
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


def ybus_pattern(ybus: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the Jacobian may be nonzero, read off the dense Y-bus: its
    nonzeros among the non-slack positions ns and the whole diagonal, in
    np.nonzero order."""
    nz = (ybus != 0)[np.ix_(ns, ns)]
    np.fill_diagonal(nz, True)
    return np.nonzero(nz)


def frontier_levels(ybus: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first level of every position from position start over the
    dense Y-bus nonzeros, one frontier per sweep; -1 where start does not
    reach."""
    linked = ybus != 0
    level = np.full(len(linked), -1)
    level[start] = 0
    frontier = np.array([start])
    while len(frontier):
        frontier = np.flatnonzero(linked[frontier].any(axis=0) & (level < 0))
        level[frontier] = level.max() + 1
    return level


def frontier_root(ybus: np.ndarray, start: int, bus_ids: list[int]) -> int:
    """The position of the pseudo-peripheral bus reached from position
    start by frontier_levels over the dense Y-bus: while the levels from
    the bus of the last level with the fewest off-diagonal nonzeros (the
    lowest bus id of a tie) are deeper, move there."""
    linked = ybus != 0
    degree = linked.sum(axis=1) - linked.diagonal()
    root, level = start, frontier_levels(ybus, start)
    while True:
        last = np.flatnonzero(level == level.max())
        candidate = min(last, key=lambda i: (degree[i], bus_ids[i]))
        moved = frontier_levels(ybus, candidate)
        if moved.max() <= level.max():
            return root
        root, level = candidate, moved


def frontier_blocks(ybus: np.ndarray, slack_index: int, ns: np.ndarray, bus_ids: list[int]) -> list[np.ndarray]:
    """The Jacobian rows of each diagonal block, from frontier_levels over
    the dense Y-bus rooted at frontier_root: consecutive levels merged
    until a block has BLOCK_ROWS rows, a short last group joining the
    block before it, unreached buses a level after the last. Each block
    lists the P rows of its sorted buses, then their Q rows, so one block,
    however the levels fall, is in natural order."""
    if len(ns) < powerflow.BLOCK_ROWS:
        return [np.arange(2 * len(ns))]
    level = frontier_levels(ybus, frontier_root(ybus, slack_index, bus_ids))
    level[level < 0] = level.max() + 1
    level = level[ns]
    cuts, start = [], 0
    for end in np.cumsum(np.bincount(level)):
        if 2 * (end - start) >= powerflow.BLOCK_ROWS:
            cuts.append(end)
            start = end
    groups = np.split(np.argsort(level, kind="stable"), cuts[:-1])
    return [np.concatenate([g, g + len(ns)]) for g in map(np.sort, groups)]


def jacobian_at(sol: PowerFlowSolution) -> np.ndarray:
    """The dense Jacobian at sol's voltages, on sol's grid."""
    return dense_jacobian(sol.grid, sol.v_mag, sol.v_ang)


def v_of(sol: PowerFlowSolution, bus_id: int) -> float:
    """The solved voltage magnitude at a bus id."""
    return float(sol.v_mag[sol.index_of[bus_id]])


def bus_with_id(net: NetworkModel, bus_id: int) -> Bus:
    """The one bus of net with the given id."""
    [bus] = [b for b in net.buses if b.id == bus_id]
    return bus


def sliced_blocks(jac: np.ndarray, blocks: list[np.ndarray]) -> tuple[list, list, list]:
    """The D_k, L_k and U_k of a dense matrix over the given diagonal
    blocks, sliced out of it: the oracle of the scattered blocks."""
    pairs = list(zip(blocks, blocks[1:]))
    return (
        [jac[np.ix_(b, b)] for b in blocks],
        [jac[np.ix_(b, a)] for a, b in pairs],
        [jac[np.ix_(a, b)] for a, b in pairs],
    )


def sliced_block_lu(jac: np.ndarray, blocks: list[np.ndarray]) -> BlockLU:
    """The block factor of a dense matrix over the given diagonal blocks."""
    return BlockLU(blocks, *sliced_blocks(jac, blocks))


def singular_kept_factors(monkeypatch) -> None:
    """Every flow's kept factor (PowerFlowSolution.factor) becomes the block
    LU of a zero Jacobian over the flow's own blocks; Newton is untouched."""

    def zero(self):
        n = 2 * len(self.grid.non_slack_pos)
        return sliced_block_lu(np.zeros((n, n)), self.grid.blocks)

    monkeypatch.setattr(PowerFlowSolution, "factor", property(zero))


def zero_first_block_from(monkeypatch, first_call: int):
    """From the given _jacobian_values call on (0 = the flat start), Newton
    sees synth153's Jacobian with its first diagonal block zeroed."""
    net = synth153()
    grid = solve_power_flow(net).grid
    first = np.zeros(len(grid.non_slack_pos), dtype=bool)
    first[grid.blocks[0] % len(first)] = True  # the buses of its P and Q rows
    r, c = grid.pattern
    in_block = np.tile(first[r] & first[c], 4)  # in each of the four quadrants
    real, calls = powerflow._jacobian_values, []

    def values(*args):
        vals = real(*args)
        if len(calls) >= first_call:
            vals[in_block] = 0.0
        calls.append(1)
        return vals

    monkeypatch.setattr(powerflow, "_jacobian_values", values)
    return net


def record_factorizations(monkeypatch) -> list[bytes]:
    """Record the operating point (v_mag and v_ang bytes) of every
    GridStructure.jacobian_blocks call: every Jacobian factorization, in
    Newton, at the flat start and at a solved point."""
    real = GridStructure.jacobian_blocks
    points: list[bytes] = []

    def recorded(self, v, th):
        points.append(v.tobytes() + th.tobytes())
        return real(self, v, th)

    monkeypatch.setattr(GridStructure, "jacobian_blocks", recorded)
    return points


def flat_start_point(grid: GridStructure) -> bytes:
    """The flat start of grid, as record_factorizations records it."""
    v, th = grid.flat_start()
    return v.tobytes() + th.tobytes()


def carried_newton_step(grid: GridStructure, v: np.ndarray, th: np.ndarray, mis: np.ndarray) -> np.ndarray:
    """The Jacobian at v, th solved for mis by the block-Thomas pass with one
    np.linalg.solve(D'_k, [U_k | y_k]) per block, mis carried as the last
    column, and no inverse; LinAlgError if a D'_k is singular."""
    d, l, u = grid.jacobian_blocks(v, th)
    blocks = grid.blocks
    dp, y, x, z = d[0], mis[blocks[0]], [], []
    for rows, dk, lk, uk in zip(blocks[1:], d[1:], l, u):
        s = np.linalg.solve(dp, np.column_stack([uk, y]))
        x.append(s[:, :-1])
        z.append(s[:, -1])
        dp = dk - lk @ x[-1]
        y = mis[rows] - lk @ z[-1]
    z.append(np.linalg.solve(dp, y))
    return powerflow._back_sweep(blocks, x, z, mis.shape)


def reference_newton(net: NetworkModel, tolerance: float = 1e-8) -> SimpleNamespace:
    """Pure Newton from the flat start, every step a fresh carried
    elimination (``carried_newton_step``), with the solver's stopping tests:
    the oracle of solve_power_flow's chord steps. Returns converged,
    iterations, v_mag, v_ang and max_mismatch."""
    grid = GridStructure.build(net)
    ns, nn = grid.non_slack_pos, len(grid.non_slack_pos)
    s_spec = powerflow._injections(net, grid.index_of)
    v, th = grid.flat_start()
    mis = powerflow._mismatch(grid.ybus, s_spec, v, th, ns)
    it, diverged = 0, False
    while it < powerflow.MAX_ITER:
        if not np.all(np.isfinite(mis)):
            diverged = True
            break
        if np.max(np.abs(mis)) <= tolerance:
            break
        try:
            dx = carried_newton_step(grid, v, th, mis)
        except np.linalg.LinAlgError:
            diverged = True
            break
        th[ns] += dx[:nn]
        v[ns] += dx[nn:]
        it += 1
        if np.any(v[ns] <= 1e-6) or not np.all(np.isfinite(v[ns])):
            diverged = True
            break
        mis = powerflow._mismatch(grid.ybus, s_spec, v, th, ns)
    max_mis = float(np.max(np.abs(mis))) if np.all(np.isfinite(mis)) else float("inf")
    converged = not diverged and max_mis <= tolerance
    return SimpleNamespace(converged=converged, iterations=it, v_mag=v, v_ang=th, max_mismatch=max_mis)


def prepared(net: NetworkModel, tolerance: float = 1e-10):
    """Solve, differentiate and partition a network for simulation entry."""
    sol = solve_power_flow(net, tolerance=tolerance)
    assert sol.converged, "fixture network must solve"
    sens = compute_sensitivity_matrix(net, sol)
    part, _ = partition_network(net, sens)
    return part, sens


# ---------------------------------------------------------------------------
# network builders


def two_bus(p: float = 0.0, q: float = 0.1, r: float = 0.0, x: float = 0.1, with_dg: bool = False) -> NetworkModel:
    buses = [
        Bus(0, BusKind.SLACK, 12.47),
        Bus(1, BusKind.PQ, 12.47, p_load=p, q_load=q),
    ]
    dgs = [DG(id=1, bus=1, p_out=0.0, q_out=0.0, p_surplus=0.5, q_surplus=0.5)] if with_dg else []
    return NetworkModel(s_base=1.0, buses=buses, branches=[Branch(0, 1, r, x)], dgs=dgs)


@pytest.fixture
def net6() -> NetworkModel:
    return load_network(FIXTURES / "net6.json")


@pytest.fixture
def net6_path() -> Path:
    return FIXTURES / "net6.json"


def synth30() -> NetworkModel:
    """30-bus meshed network: 1 slack, 4 primary, 5x5 secondary grid, 6 DGs."""
    return generate_synthetic_network(
        SynthSpec(n_feeders=2, n_transformers=4, grid_rows=5, grid_cols=5, n_loads=14, n_dgs=6, seed=0)
    )


def synth153() -> NetworkModel:
    """153-bus meshed network whose Jacobian the power flow splits into
    eight blocks (32 to 52 rows)."""
    return generate_synthetic_network(
        SynthSpec(n_feeders=2, n_transformers=8, grid_rows=12, grid_cols=12, n_loads=60, n_dgs=20, seed=0)
    )


def ladder238() -> NetworkModel:
    """The benchmark's 238-bus ladder at generator seed 0, loads as generated."""
    return generate_synthetic_network(
        SynthSpec(n_feeders=2, n_transformers=12, grid_rows=15, grid_cols=15, n_loads=120, n_dgs=40, seed=0)
    )


def ladder417() -> NetworkModel:
    """The benchmark's 417-bus ladder at generator seed 0."""
    return generate_synthetic_network(
        SynthSpec(n_feeders=2, n_transformers=16, grid_rows=20, grid_cols=20, n_loads=200, n_dgs=60, seed=0)
    )


def overvoltage30() -> NetworkModel:
    """synth30 with three DGs injecting enough reactive power to push their
    corner of the grid above 1.06 pu, violation confined to one region."""
    net = synth30()
    settings = {20: 0.28, 21: 0.40, 25: 0.40}
    for d in net.dgs:
        if d.id in settings:
            d.q_out = settings[d.id]
            d.q_surplus = 0.8
    bus_with_id(net, 15).q_load += 0.08
    return net


def trip_restore30() -> NetworkModel:
    """synth30 where DG 21 props up heavily loaded bus 27: tripping 21 dips
    exactly that one bus below 0.95 pu."""
    net = synth30()
    net.dg_by_id(21).q_out = 0.1
    net.dg_by_id(21).q_surplus = 0.3
    bus_with_id(net, 27).q_load += 0.6
    return net


def null_trip30() -> NetworkModel:
    """synth30 with DG 21's output zeroed, so tripping it changes no
    electrical quantity and subset regrouping is exactly invertible."""
    net = synth30()
    dg = net.dg_by_id(21)
    dg.p_out = 0.0
    dg.q_out = 0.0
    return net


def write_scenario(path: Path, events: list[dict], duration: int | None = None, name: str | None = None) -> Path:
    doc: dict = {"events": events}
    if duration is not None:
        doc["duration"] = duration
    if name is not None:
        doc["name"] = name
    path.write_text(json.dumps(doc, indent=2))
    return path


# ---------------------------------------------------------------------------
# graph fixtures for the partitioner


def two_triangles() -> np.ndarray:
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[a, b] = w[b, a] = 1.0
    return w


def k4() -> np.ndarray:
    w = np.ones((4, 4)) - np.eye(4)
    return w


def barbell8() -> np.ndarray:
    w = np.zeros((8, 8))
    for block in (range(4), range(4, 8)):
        for a in block:
            for b in block:
                if a != b:
                    w[a, b] = 1.0
    w[3, 4] = w[4, 3] = 1.0
    return w


def random_graph(rng: np.random.Generator, n: int, density: float = 0.5) -> np.ndarray:
    """Connected-ish random symmetric nonnegative weight matrix."""
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = np.triu(w, 1)
    for i in range(n - 1):
        if w[i, i + 1 :].sum() == 0 and w[:i, i].sum() == 0:
            w[i, i + 1] = rng.random() + 0.1
    w = w + w.T
    if w.sum() == 0:
        w[0, 1] = w[1, 0] = 1.0
    return w


# ---------------------------------------------------------------------------
# independent oracles


def set_partitions(n: int):
    """All partitions of range(n) as lists of blocks (restricted growth strings)."""
    labels = [0] * n

    def rec(i: int, maxl: int):
        if i == n:
            blocks: dict[int, list[int]] = {}
            for idx, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(idx)
            yield [blocks[k] for k in sorted(blocks)]
            return
        for lab in range(maxl + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxl, lab))

    yield from rec(1, 0) if n > 0 else iter(())


def brute_force_best_modularity(weights: np.ndarray) -> tuple[float, frozenset]:
    """Exhaustive maximum of modularity over every partition; n <= 8 only.

    Returns the optimum value and the argmax grouping as a frozenset of
    frozensets of node indices.
    """
    g = WeightedGraph.from_weights(weights)
    n = g.n_nodes
    assert n <= 8, "exhaustive search is exponential"
    best = -np.inf
    best_blocks = None
    for blocks in set_partitions(n):
        community_of = {}
        for c, block in enumerate(blocks):
            for node in block:
                community_of[node] = c
        m = modularity(g, Partition(community_of=community_of, n_communities=len(blocks), modularity=0.0))
        if m > best:
            best = m
            best_blocks = frozenset(frozenset(b) for b in blocks)
    return best, best_blocks


def lp_vertex_oracle(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Exact LP optimum by enumerating basic feasible points.

    Intersects every combination of n constraint hyperplanes, keeps feasible
    points, returns (min objective, argmin). None when infeasible. Unbounded
    problems are out of scope (callers use box-bounded fixtures).
    """
    from itertools import combinations

    n = a.shape[1]
    best: tuple[float, np.ndarray] | None = None
    for rows in combinations(range(a.shape[0]), n):
        sub = a[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        z = np.linalg.solve(sub, b[list(rows)])
        if np.all(a @ z <= b + 1e-9):
            val = float(c @ z)
            if best is None or val < best[0] - 1e-15:
                best = (val, z)
    return best


def reference_inequality_lp(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> LPResult:
    """The simplex as a scalar scan: the loop-based Bland pivots that
    `simplex.solve_inequality_lp` must reproduce bit for bit. Every pivot
    scans the costs and the pivot column one entry at a time and updates
    whole tableau rows."""
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape

    a2 = np.hstack([a, -a, np.eye(m)])
    b2 = b.copy()
    c2 = np.concatenate([c, -c, np.zeros(m)])

    neg = b2 < 0
    a2[neg] *= -1.0
    b2[neg] *= -1.0
    art_rows = np.flatnonzero(neg)
    n_art = len(art_rows)
    n_cols = 2 * n + m + n_art

    tableau = np.zeros((m, n_cols + 1))
    tableau[:, : 2 * n + m] = a2
    for k, i in enumerate(art_rows):
        tableau[i, 2 * n + m + k] = 1.0
    tableau[:, -1] = b2

    basis = np.array(
        [2 * n + m + list(art_rows).index(i) if neg[i] else 2 * n + i for i in range(m)],
        dtype=int,
    )

    cost2 = np.concatenate([c2, np.zeros(n_art + 1)])

    if n_art:
        cost1 = np.zeros(n_cols + 1)
        cost1[2 * n + m :] = 1.0
        cost1[-1] = 0.0
        for i in art_rows:
            cost1 -= tableau[i]
        status = _reference_iterate(tableau, cost1, basis, extra=cost2)
        if status is not LPStatus.OPTIMAL or -cost1[-1] > 1e-7:
            return LPResult(LPStatus.INFEASIBLE, None, None)
        _reference_expel_artificials(tableau, cost2, basis, first_art=2 * n + m)
        tableau[:, 2 * n + m : 2 * n + m + n_art] = 0.0
        cost2[2 * n + m : 2 * n + m + n_art] = 0.0

    for i in range(m):
        bi = basis[i]
        if cost2[bi] != 0.0:
            cost2 -= cost2[bi] * tableau[i]
    status = _reference_iterate(tableau, cost2, basis)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, None, None)

    full = np.zeros(n_cols)
    for i in range(m):
        full[basis[i]] = tableau[i, -1]
    z = full[:n] - full[n : 2 * n]
    return LPResult(LPStatus.OPTIMAL, z, float(c @ z))


def _reference_iterate(tableau, cost, basis, extra=None) -> LPStatus:
    m = tableau.shape[0]
    limit = 2000 * (tableau.shape[1] + m)
    for _ in range(limit):
        entering = -1
        for j in range(tableau.shape[1] - 1):
            if cost[j] < -SIMPLEX_TOL:
                entering = j
                break
        if entering < 0:
            return LPStatus.OPTIMAL

        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            aij = tableau[i, entering]
            if aij > SIMPLEX_TOL:
                ratio = tableau[i, -1] / aij
                if ratio < best_ratio - SIMPLEX_TOL or (
                    abs(ratio - best_ratio) <= SIMPLEX_TOL and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return LPStatus.UNBOUNDED

        _reference_pivot(tableau, cost, basis, leaving, entering, extra)
    raise RuntimeError("simplex failed to terminate within its pivot budget")


def _reference_pivot(tableau, cost, basis, row, col, extra=None) -> None:
    tableau[row] /= tableau[row, col]
    # Only rows with a nonzero entry in the pivot column change: subtracting
    # 0.0 * pivot row elsewhere would flip -0.0 entries to +0.0.
    f = tableau[:, col].copy()
    f[row] = 0.0
    idx = np.flatnonzero(f)
    tableau[idx] -= np.outer(f[idx], tableau[row])
    cost -= cost[col] * tableau[row]
    if extra is not None:
        extra -= extra[col] * tableau[row]
    basis[row] = col


def _reference_expel_artificials(tableau, cost2, basis, first_art: int) -> None:
    for i in range(tableau.shape[0]):
        if basis[i] >= first_art:
            for j in range(first_art):
                if abs(tableau[i, j]) > SIMPLEX_TOL:
                    _reference_pivot(tableau, cost2, basis, i, j)
                    break


def formulate_lp_by_rows(
    view: CommunityView, direction: ControlDirection, v_min: float, v_max: float
) -> LinearProgram:
    """The control LP built one row at a time, each row its own array:
    the oracle of `control.formulate_lp`, which fills blocks."""
    k = len(view.dg_ids)
    over = direction is ControlDirection.OVERVOLTAGE

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    labels: list[tuple] = []

    for i, node in enumerate(view.node_ids):
        rows.append(np.append(view.v_sens[i], 0.0))
        rhs.append(v_max - view.v0[i])
        labels.append(("v_upper", node))
    for i, node in enumerate(view.node_ids):
        rows.append(np.append(-view.v_sens[i], 0.0))
        rhs.append(view.v0[i] - v_min)
        labels.append(("v_lower", node))
    for j, dg in enumerate(view.dg_ids):
        e = np.zeros(k + 1)
        e[j] = 1.0
        rows.append(e)
        rhs.append(view.x_upper[j])
        labels.append(("surplus_upper", dg))
    for j, dg in enumerate(view.dg_ids):
        e = np.zeros(k + 1)
        e[j] = -1.0
        rows.append(e)
        rhs.append(-view.x_lower[j])
        labels.append(("surplus_lower", dg))
    for label, row, b in zip(view.flow_labels, view.flow_rows, view.flow_rhs):
        rows.append(np.append(row, 0.0))
        rhs.append(b)
        labels.append(("reverse_flow", label))
    for j, dg in enumerate(view.dg_ids):
        e = np.zeros(k + 1)
        if over:
            e[j], e[k] = -1.0, 1.0
        else:
            e[j], e[k] = 1.0, -1.0
        rows.append(e)
        rhs.append(0.0)
        labels.append(("maxmin", dg))
    cap = np.zeros(k + 1)
    cap[k] = 1.0 if over else -1.0
    rows.append(cap)
    rhs.append(0.0)
    labels.append(("objective_cap",))

    c = np.zeros(k + 1)
    c[k] = -1.0 if over else 1.0
    return LinearProgram(c=c, a_ub=np.vstack(rows), b_ub=np.array(rhs), row_labels=labels)
