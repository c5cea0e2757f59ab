"""Newton-Raphson AC power flow on meshed per-unit networks.

The solver works in polar coordinates with the full (unscaled) Jacobian,

    [dP]   [dP/dtheta  dP/dV] [dtheta]
    [dQ] = [dQ/dtheta  dQ/dV] [dV]

so that the inverse of the converged Jacobian is directly the injection-to-
state sensitivity matrix used downstream. All non-slack buses are PQ; DGs
enter as negative load at their bus.

The Jacobian is the real and imaginary part of the derivatives of the
complex injection S = diag(V) conj(I), I = Y V, in the form of MATPOWER's
dSbus_dV (Zimmerman, Murillo-Sanchez & Thomas, IEEE TPWRS 2011):

    dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
    dS/d|V|   = diag(V) conj(Y diag(V/|V|)) + conj(diag(I)) diag(V/|V|)

taken on the non-slack rows and columns only, and only at the nonzeros of
the non-slack Y-bus (plus its diagonal): the Jacobian has no other nonzero.

Each Newton step solves the Jacobian by block LU over breadth-first levels
from the slack, the level ordering of sparse power-flow factorization
(Tinney & Hart, Proc. IEEE 1967). A branch or transformer joins two buses
of the same or of adjacent levels, so with the non-slack buses grouped by
consecutive levels (blocks of at least BLOCK_ROWS Jacobian rows, each bus
with its P and Q rows) the Jacobian is block tridiagonal: diagonal blocks
D_k, below them L_k, above them U_k. Its block LU (Golub & Van Loan,
Matrix Computations, 4.5) is

    D'_1 = D_1,   G_k = L_k D'_(k-1)^-1,   D'_k = D_k - G_k U_(k-1),

with every G_k taken by a solve, never an explicit inverse; a solve is a
forward sweep with the G_k and a back sweep of solves with the D'_k. A
network of fewer than BLOCK_ROWS non-slack buses is one block in natural
order, where this is plain ``np.linalg.solve``. The solution keeps its blocks and, from
its first use, the factor at the solved point, so every sensitivity taken
at that point shares one factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import BusKind, NetworkModel


class SingularJacobianError(RuntimeError):
    """The power-flow Jacobian is singular at the current operating point."""


class PowerFlowError(RuntimeError):
    """A power flow needed by a downstream step failed to converge."""


MAX_ITER = 50  # Newton iterations before a solve is declared unconverged
# Fewest Jacobian rows per block. Measured per factor and solve, one BLAS
# thread: below it the per-block numpy calls outweigh the flops saved (8-row
# blocks cost 3.5x one dense solve of 58 rows; 16 to 64 rows are within 21%
# of each other on the 238- and 417-bus ladders), and a network of fewer
# non-slack buses stays one dense solve, bit for bit np.linalg.solve.
BLOCK_ROWS = 64


def lookup(index: dict[int, int], bus_id: int) -> int:
    """Position of a bus id in an id -> position map; ValueError if absent."""
    try:
        return index[bus_id]
    except KeyError:
        raise ValueError(f"unknown bus id {bus_id}") from None


@dataclass
class PowerFlowSolution:
    """Bus voltages at a solved (or abandoned) operating point, with the
    tolerance and the Y-bus it was solved with.

    v_mag/v_ang are indexed by position in NetworkModel.buses; bus_ids maps
    positions back to ids and index_of ids to positions. non_slack_pos
    holds the non-slack positions, the row and column order of
    ``jacobian()``; pattern the nonzeros of the Y-bus among them and blocks
    the Jacobian rows of each diagonal block, in elimination order.
    """

    bus_ids: list[int]
    index_of: dict[int, int]
    v_mag: np.ndarray
    v_ang: np.ndarray
    converged: bool
    iterations: int
    max_mismatch: float
    tolerance: float
    ybus: np.ndarray
    slack_index: int
    non_slack_pos: np.ndarray
    pattern: tuple[np.ndarray, np.ndarray]
    blocks: list[np.ndarray]

    @property
    def non_slack(self) -> list[int]:
        return [self.bus_ids[i] for i in self.non_slack_pos]

    def v_of(self, bus_id: int) -> float:
        return float(self.v_mag[lookup(self.index_of, bus_id)])

    def jacobian(self) -> np.ndarray:
        """The Newton Jacobian at these voltages, built as the solve builds it."""
        return _jacobian(self.ybus, self.v_mag, self.v_ang, self.non_slack_pos, self.pattern)

    @cached_property
    def factor(self) -> BlockLU:
        """The block LU of ``jacobian()``, computed on first use and kept;
        LinAlgError if a diagonal block is singular."""
        return BlockLU(self.jacobian(), self.blocks)

    def solves(self, net: NetworkModel) -> bool:
        """Whether these voltages solve net's current injections within the
        solution's own tolerance (the test Newton stops on)."""
        if self.bus_ids != [b.id for b in net.buses]:
            return False
        ybus = build_ybus(net, self.index_of)
        mis = _mismatch(ybus, _injections(net, self.index_of), self.v_mag, self.v_ang, self.non_slack_pos)
        return bool(np.max(np.abs(mis)) <= self.tolerance)


def build_ybus(net: NetworkModel, index_of: dict[int, int]) -> np.ndarray:
    """Dense complex bus admittance matrix.

    Transformers use the standard pi model with complex ratio
    a = tap * exp(j*phase_shift) on the primary side.
    """
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


def _injections(net: NetworkModel, index_of: dict[int, int]) -> np.ndarray:
    """Scheduled complex injection P + jQ at each bus: online DG output minus load."""
    s = np.zeros(len(net.buses), dtype=complex)
    for b in net.buses:
        s[index_of[b.id]] -= complex(b.p_load, b.q_load)
    for d in net.dgs:
        if d.online:
            s[index_of[d.bus]] += complex(d.p_out, d.q_out)
    return s


def _mismatch(ybus: np.ndarray, s_spec: np.ndarray, v: np.ndarray, th: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Specified minus calculated injections at the non-slack buses, P rows
    then Q rows."""
    vc = v * np.exp(1j * th)
    ds = (s_spec - vc * np.conj(ybus @ vc))[ns]
    return np.concatenate([ds.real, ds.imag])


def _pattern(linked: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns, among the non-slack positions, of the Y-bus
    nonzeros (linked = ybus != 0) and of the whole diagonal: where the
    Jacobian may be nonzero."""
    nz = linked[np.ix_(ns, ns)]
    np.fill_diagonal(nz, True)
    return np.nonzero(nz)


def _jacobian(ybus: np.ndarray, v: np.ndarray, th: np.ndarray, ns: np.ndarray, pattern: tuple) -> np.ndarray:
    """The polar Jacobian on the non-slack rows and columns, from the complex
    derivatives dS/dtheta and dS/d|V| (module docstring), evaluated only at
    pattern, with the expressions of the dense matrix form term by term."""
    vc = v * np.exp(1j * th)
    i = (ybus @ vc)[ns]
    vs, unit = vc[ns], np.exp(1j * th[ns])  # V and V/|V| on the non-slack buses
    r, c = pattern
    y = ybus[ns[r], ns[c]]
    on_diag = r == c
    dth = 1j * vs[r] * np.conj(np.where(on_diag, i[r], 0) - y * vs[c])
    dv = vs[r] * np.conj(y * unit[c]) + np.where(on_diag, (np.conj(i) * unit)[r], 0)
    n1 = len(ns)
    jac = np.zeros((2 * n1, 2 * n1))
    jac[r, c], jac[r, c + n1] = dth.real, dv.real
    jac[r + n1, c], jac[r + n1, c + n1] = dth.imag, dv.imag
    return jac


def _blocks(linked: np.ndarray, slack_idx: int, ns: np.ndarray) -> list[np.ndarray]:
    """Jacobian rows of each diagonal block: the non-slack buses by
    breadth-first level from the slack over the Y-bus nonzeros (linked =
    ybus != 0: its branches and transformers), consecutive levels merged
    until a block has BLOCK_ROWS rows, a short last group joining the block
    before it. A bus the slack does not reach (an invalid network) forms a
    level after the last."""
    if len(ns) < BLOCK_ROWS:  # too few rows for two blocks
        return [np.arange(2 * len(ns))]
    level = np.full(len(linked), -1)
    level[slack_idx] = 0
    frontier = np.array([slack_idx])
    while len(frontier):
        frontier = np.flatnonzero(linked[frontier].any(axis=0) & (level < 0))
        level[frontier] = level.max() + 1
    level[level < 0] = level.max() + 1
    level = level[ns]  # by Jacobian column, slack dropped
    cuts, start = [], 0
    for end in np.cumsum(np.bincount(level)):  # where each level ends
        if 2 * (end - start) >= BLOCK_ROWS:
            cuts.append(end)
            start = end
    groups = np.split(np.argsort(level, kind="stable"), cuts[:-1])  # the last takes any short rest
    return [np.concatenate([g, g + len(ns)]) for g in map(np.sort, groups)]


class BlockLU:
    """Block LU of a block-tridiagonal matrix over given diagonal blocks
    (module docstring); holds numpy arrays only. Raises LinAlgError when a
    diagonal block D'_k it solves with is singular."""

    def __init__(self, jac: np.ndarray, blocks: list[np.ndarray]):
        def block(rows, cols):  # two takes copy faster than np.ix_ indexing
            return jac.take(rows, axis=0).take(cols, axis=1)

        self.blocks = blocks
        self.d = [block(blocks[0], blocks[0])]  # D'_k
        self.g: list[np.ndarray] = []  # G_k, k >= 2
        self.u: list[np.ndarray] = []  # U_k, k < last
        for prev, rows in zip(blocks, blocks[1:]):
            self.u.append(block(prev, rows))
            self.g.append(np.linalg.solve(self.d[-1].T, block(rows, prev).T).T)
            self.d.append(block(rows, rows) - self.g[-1] @ self.u[-1])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with matrix @ x = b, for a vector or a matrix of columns b."""
        y = [b[self.blocks[0]]]
        for rows, g in zip(self.blocks[1:], self.g):
            y.append(b[rows] - g @ y[-1])
        x = np.empty(b.shape)
        xk = np.linalg.solve(self.d[-1], y[-1])
        x[self.blocks[-1]] = xk
        for k in range(len(self.blocks) - 2, -1, -1):
            xk = np.linalg.solve(self.d[k], y[k] - self.u[k] @ xk)
            x[self.blocks[k]] = xk
        return x


def solve_power_flow(net: NetworkModel, tolerance: float = 1e-8) -> PowerFlowSolution:
    """Newton-Raphson solve from a flat start (1.0 pu, 0 rad; the slack at
    its own v_mag/v_ang) until the largest mismatch is within tolerance;
    deterministic for a fixed network and tolerance.

    Non-convergence within MAX_ITER (or a diverging iterate) returns a
    solution flagged converged=False. A singular Jacobian, or a singular
    diagonal block of its factor, at the starting point raises
    SingularJacobianError; one appearing mid-run after wild steps is treated
    as divergence.
    """
    bus_ids = [b.id for b in net.buses]
    index_of = {bid: i for i, bid in enumerate(bus_ids)}
    slack_idx = index_of[net.slack_bus.id]
    ns = np.array([i for i in range(len(bus_ids)) if i != slack_idx], dtype=int)

    ybus = build_ybus(net, index_of)
    s_spec = _injections(net, index_of)
    linked = ybus != 0
    pattern = _pattern(linked, ns)
    blocks = _blocks(linked, slack_idx, ns)

    v = np.ones(len(bus_ids))
    th = np.zeros(len(bus_ids))
    v[slack_idx] = net.slack_bus.v_mag
    th[slack_idx] = net.slack_bus.v_ang

    mis = _mismatch(ybus, s_spec, v, th, ns)
    it = 0
    diverged = False
    while it < MAX_ITER:
        if not np.all(np.isfinite(mis)):
            diverged = True
            break
        if np.max(np.abs(mis)) <= tolerance:
            break
        jac = _jacobian(ybus, v, th, ns, pattern)
        try:
            dx = BlockLU(jac, blocks).solve(mis)
        except np.linalg.LinAlgError as exc:
            if it == 0:
                raise SingularJacobianError(str(exc)) from exc
            diverged = True
            break
        nn = len(ns)
        th[ns] += dx[:nn]
        v[ns] += dx[nn:]
        it += 1
        if np.any(v[ns] <= 1e-6) or not np.all(np.isfinite(v[ns])):
            diverged = True
            break
        mis = _mismatch(ybus, s_spec, v, th, ns)

    max_mis = float(np.max(np.abs(mis))) if np.all(np.isfinite(mis)) else float("inf")
    converged = (not diverged) and max_mis <= tolerance
    return PowerFlowSolution(
        bus_ids=bus_ids,
        index_of=index_of,
        v_mag=v,
        v_ang=th,
        converged=converged,
        iterations=it,
        max_mismatch=max_mis,
        tolerance=tolerance,
        ybus=ybus,
        slack_index=slack_idx,
        non_slack_pos=ns,
        pattern=pattern,
        blocks=blocks,
    )
