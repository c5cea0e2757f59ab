"""AC power flow on meshed per-unit networks, by Newton steps on a kept
Jacobian factor.

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

taken on the non-slack rows and columns only, and only at the Y-bus's own
entries there, the diagonal and the pairs a branch or transformer joins:
the Jacobian has no other nonzero, so, as in dSbus_dV, its pattern and the
Y values it reads are the Y-bus's entries with both ends non-slack.

The Y-bus is kept as its nonzeros, row, column and value arrays sorted by
row and column, as MATPOWER's makeYbus builds it; no n x n array is formed
(at 1633 buses a dense complex Y-bus is 42.7 MB against a few thousand
nonzeros). Y V, for the injections and the mismatch, is a real and an
imaginary ``np.bincount`` of the nonzeros' products with V.

The Jacobian is factored by block elimination over breadth-first levels,
the level ordering of sparse power-flow factorization (Tinney & Hart, Proc.
IEEE 1967). A branch or transformer joins two buses of the same or of
adjacent levels, so with the non-slack buses grouped by consecutive levels
(blocks of at least BLOCK_ROWS Jacobian rows, each bus with its P and Q
rows) the Jacobian is block tridiagonal: diagonal blocks D_k, below them
L_k, above them U_k. The levels are rooted at a pseudo-peripheral bus, the
root of the reverse Cuthill-McKee and Gibbs-Poole-Stockmeyer orderings
(Gibbs, Poole & Stockmeyer, SIAM J. Numer. Anal. 13(2), 1976), found by
the George-Liu iteration (George & Liu, ACM TOMS 5(3), 1979) from the
slack: more levels over the same buses make them narrower, and the
widest blocks set the cost of a factor. The synthetic generator's feeders
join the slack to its lattice at several points, and from the slack the
widest level of the 238-bus ladder holds 47 buses, against 24 from a
pseudo-peripheral bus.
The Jacobian is eliminated in block-Thomas form (Golub & Van Loan, Matrix
Computations, 4.5):

    D'_1 = D_1,   X_k = D'_k^-1 U_k,   D'_(k+1) = D_(k+1) - L_(k+1) X_k.

The factor (``BlockLU``) keeps each D'_k^-1 with the L_k and the X_k. A
right-hand side b is then solved by matrix products only: z_1 = D'_1^-1
b_1, z_(k+1) = D'_(k+1)^-1 (b_(k+1) - L_(k+1) z_k), and the back sweep
x_K = z_K, x_k = z_k - X_k x_(k+1). At 238 buses, one BLAS thread, the
inverses cost about as much to form as per-block LU factors (0.55-0.65 ms
against 0.52-0.63 ms for scipy's lu_factor and lu_solve), and a solve
against them far less (one vector 0.04-0.05 against 0.14-0.15 ms, 24
columns 0.12-0.14 against 0.36-0.40 ms), so they pay wherever a factor is
solved more than once.

Each D'_k^-1 is block elimination once more, one level down
(``_inverse``): split between the first and the second half of its
block's buses as [[A, B], [C, D]], it is assembled from A^-1 and the
inverse of the Schur complement S = D - C A^-1 B by the Banachiewicz
formula,

    [A^-1 + A^-1 B S^-1 C A^-1    -A^-1 B S^-1]
    [-S^-1 C A^-1                  S^-1       ],

without pivoting between the halves (on its stability, Demmel, Higham &
Schreiber, Numer. Linear Algebra Appl. 2(2), 1995). ``np.linalg.inv``
runs at a fraction of a matrix product's rate, the more so the larger the
block: over the 417-bus ladder's 15 blocks (34 to 96 rows) two half-size
inverses and six products take 1.25-1.46 ms against 1.45-1.73 ms for one
``np.linalg.inv`` of each block, over the 238-bus ladder's 11 blocks (32
to 50 rows) about as long (0.55-0.65 against 0.56-0.58 ms; one BLAS
thread, three passes). The halves run between buses,
each bus's P and Q rows on one side, not between the P and the Q rows:
with every lattice branch at x = 0, which is a valid network, dP/dtheta
is zero on the lattice buses at the flat start, so a P/Q half is
singular where the block is not.

Newton's method with a frozen Jacobian, the chord or Shamanskii method
(Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003; for
load flow, Stott, Proc. IEEE 62(7), 1974), is how a solve uses that.
A solve from the flat start factors the Jacobian there for its first
step and at iterate 1 for its second, and keeps that factor. Each later
step solves the kept factor again (a chord step) while the step before
cut the largest mismatch to at most CHORD_RATIO of what it was, and
factors the Jacobian at the current iterate otherwise. A solve stops at
the same test either way: the largest mismatch within tolerance. A
network of fewer than BLOCK_ROWS non-slack buses, or one whose levels
leave too few rows for a second block, is one block in natural order,
factored at every step after the first: its factor is the
Jacobian itself, solved by plain ``np.linalg.solve``, which repeats the
LU on every call, so a chord step saves no time there (on 30-bus
networks it took as many steps and as long per solve) and would only
change the bits. Such a solve from the flat start is a full Newton
solve, bit for bit.

The Jacobian values are written straight into the blocks: one flat buffer
holds, block row after block row, L_k, D_k and U_k, each in C order, and
the buffer position of every value is computed once per Y-bus. No dense
Jacobian is formed.

A sensitivity reads columns of the inverse Jacobian, the solutions for
unit right-hand sides. ``BlockLU.solve_units`` builds each block's part of
the units itself and returns only the rows asked for, so the voltage block
of every bus allocates neither the 2n x n unit matrix nor the angle rows.
A unit column is zero in the forward sweep until the block of its unit
(the structure a sparse factor's solve skips; Tinney & Walker, Proc. IEEE
55(11), 1967), so each z_k carries only the columns whose unit lies in
block k or before it: on the 417-bus ladder the voltage block takes about
6 ms instead of 10.

``GridStructure`` holds what depends on the grid only: bus order, Y-bus,
pattern, blocks and buffer layout. Each flow keeps its structure, and a
re-solve given an earlier flow reuses that flow's structure when the
data the Y-bus is built from is unchanged (a load step, a DG trip): the
bus ids, the slack's position and voltage, every branch's endpoints, r,
x and b_shunt, and every transformer's endpoints, r, x, tap and
phase_shift. Otherwise it builds a new structure, and only then a
Y-bus. The solution also keeps, from its first use, the factor at the
solved point, so every sensitivity taken at that point shares one
factorization.

A re-solve that reuses a converged flow's structure is warm, the usual
start for sequential load flow (Stott 1974): it starts at that flow's
voltages, and its first step solves a factor that flow lends, the
solved point's factor if it was read, else the one its last step
solved (``warm_factor``). It never factors only to start; from its
second step on, the CHORD_RATIO rule alone decides when to factor (a
one-block network factors at every such step). Any other solve (no
earlier flow, an unconverged one, another grid, or one with no factor
to lend because it took no step) starts flat, bit for bit the solve
without an earlier flow. A warm and a cold solve of one network both
end within tolerance, so they agree to about ||J^-1|| times it, not bit
for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter

import numpy as np

from .network import NetworkModel, adjacency, peripheral_levels


class PowerFlowError(RuntimeError):
    """A flow stopped unconverged (the message quotes its ``stop_text``), or
    its Jacobian is singular at the solved point."""


class SingularJacobianError(PowerFlowError):
    """The Jacobian is singular at a converged point; a solve meeting a
    singular block stops (StopReason.SINGULAR) instead."""


class StopReason(str, Enum):
    """Why a power flow stopped stepping."""

    CONVERGED = "converged"
    VOLTAGE_COLLAPSE = "voltage collapse"  # an iterate put a bus at or below 1e-6 pu
    NON_FINITE = "non-finite mismatch"
    SINGULAR = "singular Jacobian block"
    MAX_ITER = "iteration limit"


MAX_ITER = 50  # steps, chord or full, before a solve is declared unconverged
# A chord step follows a step that cut the largest mismatch to at most this
# share of what it was; any other step factors the Jacobian anew. Counted on
# three storm-238 rounds at seed 0: 0.5 and 0.25 make the same factorizations
# and steps, 0.1 makes more factorizations (see CHANGES.md).
CHORD_RATIO = 0.25
# Fewest Jacobian rows per block. Measured per factor at the solved point,
# one BLAS thread, over levels from the pseudo-peripheral bus (best of 7,
# one pass each): 32 rows take 0.77 ms on the 238-bus ladder and 1.71 ms
# on the 417-bus one, against 0.83 and 1.87 ms at 24 rows, 0.95 and 1.92
# at 48 and 1.13 and 1.91 at 64; below that the per-block numpy calls
# outweigh the flops saved (8-row blocks cost 3.5x one dense solve of 58
# rows), and a network of fewer non-slack buses stays one dense solve, bit
# for bit np.linalg.solve. Smaller blocks make a solve sweep more of them:
# one vector takes 0.049 ms at 32 rows against 0.040 at 64 on the 238-bus
# ladder.
BLOCK_ROWS = 32


_BRANCH_DATA = attrgetter("from_bus", "to_bus", "r", "x", "b_shunt")
_TRANSFORMER_DATA = attrgetter("primary_bus", "secondary_bus", "r", "x", "tap", "phase_shift")


def _line_data(net: NetworkModel) -> tuple:
    """Everything build_ybus reads of net's branches and transformers."""
    return tuple(map(_BRANCH_DATA, net.branches)), tuple(map(_TRANSFORMER_DATA, net.transformers))


@dataclass(frozen=True, eq=False)
class GridStructure:
    """What a solve takes from the grid and not from its injections (module
    docstring). Immutable, so flows and their deep copies share one.

    index_of maps bus ids to positions in bus_ids. lines is the branch and
    transformer data the Y-bus was built from, and ybus its nonzeros
    (``build_ybus``). non_slack_pos holds the non-slack positions, the row
    and column order of the Jacobian; pattern the rows and columns, among
    them, of the Y-bus entries with both ends non-slack, in Y-bus order,
    y_at those entries' values, and blocks the Jacobian rows of each
    diagonal block, in elimination order. position is where each of
    ``_jacobian_values`` lands in the block buffer, and spans the (start,
    rows, columns) there of every L_k, every D_k and every U_k.
    """

    bus_ids: list[int]
    index_of: dict[int, int]
    slack_index: int
    slack_v: tuple[float, float]  # the slack's v_mag and v_ang
    lines: tuple
    ybus: tuple[np.ndarray, np.ndarray, np.ndarray]
    non_slack_pos: np.ndarray
    pattern: tuple[np.ndarray, np.ndarray]
    y_at: np.ndarray
    blocks: list[np.ndarray]
    position: np.ndarray
    spans: tuple[list, list, list]
    size: int  # of the block buffer

    @classmethod
    def build(cls, net: NetworkModel) -> GridStructure:
        """The structure of net's buses, slack and Y-bus; the arrays it
        keeps (the Y-bus's among them) are made read-only."""
        bus_ids = [b.id for b in net.buses]
        index_of = {bid: i for i, bid in enumerate(bus_ids)}
        slack = net.slack_bus
        slack_index = index_of[slack.id]
        ybus = build_ybus(net, index_of)
        ns = np.array([i for i in range(len(bus_ids)) if i != slack_index], dtype=int)
        rows, cols, values = ybus
        kept = (rows != slack_index) & (cols != slack_index)
        pattern = tuple(k[kept] - (k[kept] > slack_index) for k in (rows, cols))  # as Jacobian columns
        y_at = values[kept]
        blocks = _blocks(net, slack.id, bus_ids, ns)
        position, spans, size = _layout(blocks, pattern, len(ns))
        for a in (*ybus, ns, *pattern, y_at, *blocks, position):
            a.flags.writeable = False
        slack_v, lines = (slack.v_mag, slack.v_ang), _line_data(net)
        return cls(
            bus_ids, index_of, slack_index, slack_v, lines, ybus, ns, pattern, y_at, blocks, position, spans, size
        )

    def __deepcopy__(self, memo) -> GridStructure:
        return self

    def fits(self, net: NetworkModel) -> bool:
        """Whether net has this structure: the same bus ids, slack position
        and voltage, and branch and transformer data, so the same Y-bus."""
        slack = net.slack_bus
        return (
            self.bus_ids == [b.id for b in net.buses]
            and self.index_of[slack.id] == self.slack_index
            and self.slack_v == (slack.v_mag, slack.v_ang)
            and self.lines == _line_data(net)
        )

    def flat_start(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh v_mag, v_ang arrays at the flat start."""
        v = np.ones(len(self.bus_ids))
        th = np.zeros(len(self.bus_ids))
        v[self.slack_index], th[self.slack_index] = self.slack_v
        return v, th

    def jacobian_blocks(self, v: np.ndarray, th: np.ndarray) -> tuple[list, list, list]:
        """The Jacobian at v, th as its blocks D_k, L_k and U_k, views into
        one freshly filled buffer."""
        buf = np.zeros(self.size)
        buf[self.position] = _jacobian_values(self, v, th)
        l, d, u = ([buf[s : s + r * c].reshape(r, c) for s, r, c in side] for side in self.spans)
        return d, l, u

    def factor(self, v: np.ndarray, th: np.ndarray) -> BlockLU:
        """The block factor of the Jacobian at v, th; LinAlgError if a
        diagonal block is singular."""
        return BlockLU(self.blocks, *self.jacobian_blocks(v, th))


@dataclass
class PowerFlowSolution:
    """Bus voltages at a solved (or abandoned) operating point, with the
    tolerance and the grid structure it was solved with.

    v_mag/v_ang are indexed by position in NetworkModel.buses; bus_ids maps
    positions back to ids and index_of ids to positions. iterations counts
    the steps taken, chord and full; factorizations the Jacobians factored
    at the iterates the solve stepped to (not at its start). warm_factor
    is the factor a warm re-solve from here starts on: the one the last
    step solved (for a warm solve that took none, the one it was lent),
    replaced by the solved point's once that is read.
    """

    grid: GridStructure
    v_mag: np.ndarray
    v_ang: np.ndarray
    iterations: int
    max_mismatch: float
    tolerance: float
    stopped: StopReason
    factorizations: int
    warm_factor: BlockLU | None

    @property
    def converged(self) -> bool:
        return self.stopped is StopReason.CONVERGED

    @property
    def bus_ids(self) -> list[int]:
        return self.grid.bus_ids

    @property
    def index_of(self) -> dict[int, int]:
        return self.grid.index_of

    @property
    def slack_index(self) -> int:
        return self.grid.slack_index

    @property
    def non_slack(self) -> list[int]:
        return [self.bus_ids[i] for i in self.grid.non_slack_pos]

    def stop_text(self) -> str:
        """Why the flow stopped and how far it got, as error messages quote it."""
        return (
            f"{self.stopped.value} ({self.iterations} steps, {self.factorizations} factorizations, "
            f"max mismatch {self.max_mismatch:.3e})"
        )

    @cached_property
    def factor(self) -> BlockLU:
        """The block factor of the Jacobian at these voltages, computed on first
        use and kept, also as warm_factor; LinAlgError if a diagonal block is
        singular."""
        self.warm_factor = self.grid.factor(self.v_mag, self.v_ang)
        return self.warm_factor

    def solves(self, net: NetworkModel) -> bool:
        """Whether net has this flow's grid (``GridStructure.fits``) and these
        voltages solve its injections within the flow's own tolerance."""
        grid = self.grid
        if not grid.fits(net):
            return False
        mis = _mismatch(grid.ybus, _injections(net, grid.index_of), self.v_mag, self.v_ang, grid.non_slack_pos)
        return bool(np.max(np.abs(mis), initial=0.0) <= self.tolerance)


def build_ybus(net: NetworkModel, index_of: dict[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The complex bus admittance matrix as its nonzeros: rows, columns and
    values, sorted by row, then column. Every bus has a diagonal entry, 0
    at a bus no element touches (only in an invalid network).

    Transformers use the standard pi model with complex ratio
    a = tap * exp(j*phase_shift) on the primary side. Each entry sums its
    stamps in element order, branches then transformers, after a 0 on the
    diagonal, as a dense matrix built by ``+=`` would, so its value is that
    sum bit for bit.
    """
    n = len(net.buses)
    rows, cols = list(range(n)), list(range(n))
    stamps: list[complex] = [0j] * n
    for br in net.branches:
        i, j = index_of[br.from_bus], index_of[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        ysh = 0.5j * br.b_shunt
        rows += (i, j, i, j)
        cols += (i, j, j, i)
        stamps += (ys + ysh, ys + ysh, -ys, -ys)
    for tr in net.transformers:
        p, s = index_of[tr.primary_bus], index_of[tr.secondary_bus]
        ys = 1.0 / complex(tr.r, tr.x)
        a = tr.tap * np.exp(1j * tr.phase_shift)
        rows += (p, p, s, s)
        cols += (p, s, p, s)
        stamps += (ys / (tr.tap * tr.tap), -ys / np.conj(a), -ys / a, ys)
    keys, entry = np.unique(np.array(rows, dtype=int) * n + np.array(cols, dtype=int), return_inverse=True)
    values = np.zeros(len(keys), dtype=complex)
    np.add.at(values, entry, np.array(stamps, dtype=complex))
    return (*np.divmod(keys, n), values)


def _injections(net: NetworkModel, index_of: dict[int, int]) -> np.ndarray:
    """Scheduled complex injection P + jQ at each bus: online DG output minus load."""
    s = np.zeros(len(net.buses), dtype=complex)
    for b in net.buses:
        s[index_of[b.id]] -= complex(b.p_load, b.q_load)
    for d in net.dgs:
        if d.online:
            s[index_of[d.bus]] += complex(d.p_out, d.q_out)
    return s


def _current(ybus: tuple, vc: np.ndarray) -> np.ndarray:
    """I = Y V from the Y-bus nonzeros: a real and an imaginary bincount of
    their products with V."""
    rows, cols, values = ybus
    terms = values * vc[cols]
    i = np.empty(len(vc), dtype=complex)
    i.real = np.bincount(rows, terms.real, len(vc))
    i.imag = np.bincount(rows, terms.imag, len(vc))
    return i


def _mismatch(ybus: tuple, s_spec: np.ndarray, v: np.ndarray, th: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Specified minus calculated injections at the non-slack buses, P rows
    then Q rows."""
    vc = v * np.exp(1j * th)
    ds = (s_spec - vc * np.conj(_current(ybus, vc)))[ns]
    return np.concatenate([ds.real, ds.imag])


def _jacobian_values(grid: GridStructure, v: np.ndarray, th: np.ndarray) -> np.ndarray:
    """The polar Jacobian's values at grid's pattern on the non-slack rows
    and columns, from the complex derivatives dS/dtheta and dS/d|V| (module
    docstring) with the expressions of the dense matrix form term by term:
    dP/dtheta, dP/d|V|, dQ/dtheta, then dQ/d|V|, each in pattern order."""
    ns, (r, c), y = grid.non_slack_pos, grid.pattern, grid.y_at
    vc = v * np.exp(1j * th)
    i = _current(grid.ybus, vc)[ns]
    vs, unit = vc[ns], np.exp(1j * th[ns])  # V and V/|V| on the non-slack buses
    on_diag = r == c
    dth = 1j * vs[r] * np.conj(np.where(on_diag, i[r], 0) - y * vs[c])
    dv = vs[r] * np.conj(y * unit[c]) + np.where(on_diag, (np.conj(i) * unit)[r], 0)
    return np.concatenate([dth.real, dv.real, dth.imag, dv.imag])


def _entries(pattern: tuple, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian rows and columns of the ``_jacobian_values`` entries."""
    r, c = pattern
    return np.concatenate([r, r, r + n1, r + n1]), np.concatenate([c, c + n1, c, c + n1])


def _blocks(net: NetworkModel, slack_id: int, bus_ids: list[int], ns: np.ndarray) -> list[np.ndarray]:
    """Jacobian rows of each diagonal block: the non-slack positions ns by
    breadth-first level over net's branches and transformers (the
    network's ``adjacency``) from a pseudo-peripheral bus of the slack's
    component (``peripheral_levels``), consecutive levels merged until a
    block has BLOCK_ROWS rows, a short last group joining the block before
    it. A bus the slack does not reach (an invalid network) forms a level
    after the last. Of several blocks, each lists the P then the Q rows of
    the first half of its sorted buses, then those of the second half: the
    two halves ``_inverse`` splits it into. One block is in natural order."""
    if len(ns) < BLOCK_ROWS:  # too few rows for two blocks
        return [np.arange(2 * len(ns))]
    level_of = peripheral_levels(adjacency(net), slack_id)
    unreached = max(level_of.values()) + 1
    level = np.array([level_of.get(bus_ids[i], unreached) for i in ns])  # by Jacobian column
    cuts, start = [], 0
    for end in np.cumsum(np.bincount(level)):  # where each level ends
        if 2 * (end - start) >= BLOCK_ROWS:
            cuts.append(end)
            start = end
    if len(cuts) < 2:  # the levels make one block, kept in natural order
        return [np.arange(2 * len(ns))]
    groups = np.split(np.argsort(level, kind="stable"), cuts[:-1])  # the last takes any short rest
    halves = (np.split(g, [len(g) // 2]) for g in map(np.sort, groups))
    return [np.concatenate([g1, g1 + len(ns), g2, g2 + len(ns)]) for g1, g2 in halves]


def _layout(blocks: list[np.ndarray], pattern: tuple, n1: int) -> tuple[np.ndarray, tuple, int]:
    """The block buffer's layout: block row k holds L_k (if k > 0), D_k and
    U_k (if k < last), each C-ordered, one after the other. Returns the
    buffer position of every ``_jacobian_values`` entry, the (start, rows,
    columns) of the L_k, of the D_k and of the U_k, and the buffer size."""
    sizes = [len(b) for b in blocks]
    block_of = np.empty(2 * n1, dtype=int)
    local = np.empty(2 * n1, dtype=int)  # row within its block
    for k, rows in enumerate(blocks):
        block_of[rows] = k
        local[rows] = np.arange(len(rows))
    start = np.zeros((len(blocks), 3), dtype=int)  # of L_k, D_k, U_k
    spans: tuple[list, list, list] = ([], [], [])
    size = 0
    for k, n in enumerate(sizes):
        for side in (0, 1, 2):
            if 0 <= k + side - 1 < len(blocks):
                cols = sizes[k + side - 1]
                start[k, side] = size
                spans[side].append((size, n, cols))
                size += n * cols
    r, c = _entries(pattern, n1)
    kr, kc = block_of[r], block_of[c]
    position = start[kr, kc - kr + 1] + local[r] * np.take(sizes, kc) + local[c]
    return position, spans, size


def _back_sweep(blocks: list[np.ndarray], xs: list, zs: list, shape: tuple) -> np.ndarray:
    """The solution from the X_k and z_k: x_K = z_K, x_k = z_k - X_k x_(k+1),
    each x_k written to its block's rows."""
    out = np.empty(shape)
    xk = zs[-1]
    out[blocks[-1]] = xk
    for rows, big_xk, zk in zip(blocks[-2::-1], xs[::-1], zs[-2::-1]):
        xk = zk - big_xk @ xk
        out[rows] = xk
    return out


def _inverse(m: np.ndarray) -> np.ndarray:
    """The inverse of m by the Banachiewicz formula (module docstring), from
    A^-1, A the leading h = 2 * (len(m) // 4) rows and columns (the P and Q
    rows of the first half of a block's buses, ``_blocks``), and S^-1, S
    = D - C A^-1 B; LinAlgError if A or S is singular."""
    h = 2 * (len(m) // 4)
    a_inv = np.linalg.inv(m[:h, :h])
    a_inv_b = a_inv @ m[:h, h:]
    c_a_inv = m[h:, :h] @ a_inv
    s_inv = np.linalg.inv(m[h:, h:] - m[h:, :h] @ a_inv_b)
    out = np.empty_like(m)
    out[:h, h:] = -a_inv_b @ s_inv
    out[h:, :h] = -s_inv @ c_a_inv
    out[:h, :h] = a_inv - out[:h, h:] @ c_a_inv
    out[h:, h:] = s_inv
    return out


class BlockLU:
    """Block-Thomas factor of a block-tridiagonal matrix (module docstring)
    over diagonal blocks d (D_k), the blocks below them l (L_k, k >= 2) and
    above them u (U_k, k < last), blocks the matrix rows of each. It keeps
    the inverses D'_k^-1 (inv, each by ``_inverse``), the L_k (l) and the
    X_k (x), compact numpy arrays, never views of the blocks given, so a
    solve is matrix products only; LinAlgError here if a D'_k, or a half
    ``_inverse`` inverts, is singular. One block keeps the
    matrix itself (dense) and solves it by np.linalg.solve, which raises
    LinAlgError at the solve if it is singular.
    """

    def __init__(self, blocks: list[np.ndarray], d: list, l: list, u: list):
        self.blocks = blocks
        self.l = [lk.copy() for lk in l]
        self.dense, self.inv, self.x = None, [], []
        if len(blocks) == 1:
            self.dense = d[0].copy()
            return
        self.inv.append(_inverse(d[0]))
        for dk, lk, uk in zip(d[1:], l, u):
            self.x.append(self.inv[-1] @ uk)
            self.inv.append(_inverse(dk - lk @ self.x[-1]))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with matrix @ x = b, for a vector or a matrix of columns b."""
        if self.dense is not None:
            return np.linalg.solve(self.dense, b)
        z = [self.inv[0] @ b[self.blocks[0]]]
        for rows, inv_k, lk in zip(self.blocks[1:], self.inv[1:], self.l):
            z.append(inv_k @ (b[rows] - lk @ z[-1]))
        return _back_sweep(self.blocks, self.x, z, b.shape)

    def solve_units(self, units: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The given rows (distinct, in that order) of x with matrix @ x = E,
        where column j of E is the unit vector at row units[j]: those
        columns of the inverse, formed without E and without the rows not
        asked for. Each block's part of E is built where the forward sweep
        reaches it. A column is zero in the forward sweep until the block of
        its unit, so with the columns taken by block, then row, each z_k
        carries only those whose unit lies in block k or before it."""
        m = len(units)
        if self.dense is not None:
            e = np.zeros((len(self.dense), m))
            e[units, np.arange(m)] = 1.0
            return np.linalg.solve(self.dense, e)[rows]
        n = sum(map(len, self.blocks))
        block_of, local, at = np.empty(n, dtype=int), np.empty(n, dtype=int), np.full(n, -1)
        for k, b in enumerate(self.blocks):
            block_of[b], local[b] = k, np.arange(len(b))
        at[rows] = np.arange(len(rows))
        order = np.argsort(block_of[units] * n + local[units], kind="stable")
        ends = np.searchsorted(block_of[units[order]], np.arange(len(self.blocks)), side="right")
        z, start = [], 0
        for b, inv_k, lk, end in zip(self.blocks, self.inv, [None, *self.l], ends):
            rhs = np.zeros((len(b), end))
            rhs[local[units[order[start:end]]], np.arange(start, end)] = 1.0
            if lk is not None:
                rhs[:, :start] -= lk @ z[-1]
            z.append(inv_k @ rhs)
            start = end
        out = np.empty((len(rows), m))
        for k in range(len(self.blocks) - 1, -1, -1):
            zk = z.pop()
            if k == len(self.x):
                xk = zk  # x_K = z_K, which carries every column
            else:  # x_k = z_k - X_k x_(k+1), z_k zero past its columns
                x_next, xk = xk, np.zeros((len(zk), m))
                xk[:, : zk.shape[1]] = zk
                xk -= self.x[k] @ x_next
            pick = at[self.blocks[k]]
            keep = pick >= 0
            out[np.ix_(pick[keep], order)] = xk[keep]
        return out


def solve_power_flow(
    net: NetworkModel, tolerance: float = 1e-8, previous: PowerFlowSolution | None = None
) -> PowerFlowSolution:
    """Solve from a flat start (1.0 pu, 0 rad; the slack at its own
    v_mag/v_ang), or warm from previous, by Newton steps, chord steps on a
    kept factor among them on a network of several blocks (module
    docstring), until the largest mismatch is within tolerance;
    deterministic for a fixed network, tolerance and previous. iterations
    counts the steps of both kinds.

    previous, a flow of an earlier state of net, lends its grid structure
    (and so its Y-bus) when net's bus ids, slack and branch and transformer
    data are unchanged. If it also converged and has a factor to lend, the
    solve is warm: it starts at previous's voltages on previous's factor
    (module docstring). Any other solve is the flat-start solve, bit for
    bit as without previous.

    A solve never raises for its operating point. Non-convergence within
    MAX_ITER steps, a collapsing or non-finite iterate, or a singular
    Jacobian block at any step, the first included, returns a solution
    flagged converged=False, with the reason in stopped.
    """
    if previous is not None and previous.grid.fits(net):
        grid = previous.grid
        factor = previous.warm_factor if previous.converged else None
    else:
        grid, factor = GridStructure.build(net), None
    ns, nn = grid.non_slack_pos, len(grid.non_slack_pos)
    s_spec = _injections(net, grid.index_of)
    full_steps_only = len(grid.blocks) == 1  # where a kept factor saves nothing
    flat = factor is None

    v, th = grid.flat_start() if flat else (previous.v_mag.copy(), previous.v_ang.copy())
    mis = _mismatch(grid.ybus, s_spec, v, th, ns)
    it = factorizations = 0
    stopped = None
    while it < MAX_ITER:
        if not np.all(np.isfinite(mis)):
            stopped = StopReason.NON_FINITE
            break
        peak = np.max(np.abs(mis), initial=0.0)  # 0 with no mismatch row: only the slack
        if peak <= tolerance:
            break
        try:
            if it == 0:
                if flat:
                    factor = grid.factor(v, th)
            elif full_steps_only or (flat and it == 1) or peak > CHORD_RATIO * last_peak:
                factor = grid.factor(v, th)
                factorizations += 1
            dx = factor.solve(mis)
        except np.linalg.LinAlgError:
            stopped = StopReason.SINGULAR
            break
        last_peak = peak
        th[ns] += dx[:nn]
        v[ns] += dx[nn:]
        it += 1
        if not np.all(np.isfinite(v[ns])):
            stopped = StopReason.NON_FINITE
            break
        mis = _mismatch(grid.ybus, s_spec, v, th, ns)
        if np.any(v[ns] <= 1e-6):  # the mismatch reported is the collapsed point's
            stopped = StopReason.VOLTAGE_COLLAPSE
            break

    max_mis = float(np.max(np.abs(mis), initial=0.0)) if np.all(np.isfinite(mis)) else float("inf")
    if stopped is None:
        stopped = StopReason.CONVERGED if max_mis <= tolerance else StopReason.MAX_ITER
    return PowerFlowSolution(
        grid=grid,
        v_mag=v,
        v_ang=th,
        iterations=it,
        max_mismatch=max_mis,
        tolerance=tolerance,
        stopped=stopped,
        factorizations=factorizations,
        warm_factor=factor,
    )
