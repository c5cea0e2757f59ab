"""Dense two-phase simplex for small inequality-form linear programs.

Solves min c.z subject to A z <= b with free variables z (split internally
into nonnegative pairs). Bland's rule picks both the entering and the
leaving variable, so the method cannot cycle and is fully deterministic for
a fixed column order.

The control LPs have a median of 14 rows (8 to 34) on the benchmark's
30-bus networks and 100 rows (20 to 148) on its 238-bus ladder, over 2 to
16 variables; with slacks and artificials a 238-bus tableau is about 130
columns wide (up to 231), and a solve takes about 25 pivots. At that size
the cost is the number of numpy calls, not arithmetic, so each pivot is a
fixed handful of whole-array calls:
- the entering column is the first index of `cost < -TOL`;
- the leaving row is a fold over the candidate rows in row order, as Python
  floats, with the comparisons of a scalar scan, so Bland's rule picks the
  same pivot; when no other ratio lies within 2·TOL of the smallest, that
  row is the fold's outcome and the fold is skipped (``_leaving_row``);
- the tableau is stored by columns, and a pivot rewrites only the columns
  with a nonzero entry in the pivot row. Their other entries would only have
  received x - f*0, which can change nothing but the sign of an exact zero,
  and no comparison reads that sign. The right-hand side, which the returned
  x is read from, is updated on exactly the rows with a nonzero entry in the
  pivot column, so even its signed zeros are those of a full row update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TOL = 1e-9


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: LPStatus
    x: np.ndarray | None
    objective: float | None


def solve_inequality_lp(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> LPResult:
    """Minimize c.z over {z : a_ub z <= b_ub}, z unrestricted in sign."""
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError(f"inconsistent LP shapes: c{c.shape}, A{a.shape}, b{b.shape}")

    # Columns [z+ | z- | slacks | artificials | rhs], stored transposed:
    # tab[j] is column j over the m rows. A row with a negative right-hand
    # side is negated and starts with its own artificial in the basis.
    first_art = 2 * n + m
    neg = b < 0
    art_rows = neg.nonzero()[0]
    n_art = len(art_rows)
    n_cols = first_art + n_art
    sign = np.where(neg, -1.0, 1.0)
    tab = np.zeros((n_cols + 1, m))
    np.multiply(a.T, sign, out=tab[:n])
    np.negative(tab[:n], out=tab[n : 2 * n])
    tab[2 * n : first_art] = np.diag(sign)
    np.multiply(b, sign, out=tab[-1])
    basis = np.arange(2 * n, first_art)
    basis[art_rows] = first_art + np.arange(n_art)
    tab[basis[art_rows], art_rows] = 1.0

    # Row 0 is the phase-2 cost, row 1 the phase-1 cost; a pivot updates
    # both, so phase 2 starts from costs already carried through phase 1.
    costs = np.zeros((2, n_cols + 1))
    cost2, cost1 = costs
    cost2[:n] = c
    cost2[n : 2 * n] = -c
    if n_art:
        cost1[first_art:-1] = 1.0
        for i in art_rows:
            cost1 -= tab[:, i]
        status = _iterate(tab, costs, basis)
        if status is not LPStatus.OPTIMAL or -cost1[-1] > 1e-7:
            return LPResult(LPStatus.INFEASIBLE, None, None)
        _expel_artificials(tab, costs[:1], basis, first_art)
        # Freeze the artificial columns out of phase 2. Their cost entries
        # must be cleared too, or a leftover negative entry would nominate a
        # frozen all-zero column and read as unboundedness.
        tab[first_art:-1] = 0.0
        cost2[first_art:-1] = 0.0

    # Every basic phase-2 cost is already exactly zero: slacks and
    # artificials start at zero cost, a pivot sets the entering column's cost
    # to c - c*1.0 (its pivot-row entry is x/x), and it leaves the other basic
    # costs alone, since their pivot-row entry is 0.
    status = _iterate(tab, costs[:1], basis)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, None, None)

    full = np.zeros(n_cols)
    full[basis] = tab[-1]
    z = full[:n] - full[n : 2 * n]
    return LPResult(LPStatus.OPTIMAL, z, float(c @ z))


def _iterate(tab: np.ndarray, costs: np.ndarray, basis: np.ndarray) -> LPStatus:
    """Pivot to optimality with Bland's rule on the last row of costs;
    every row of costs is updated in place."""
    cost, rhs = costs[-1], tab[-1]
    limit = 2000 * sum(tab.shape)
    for _ in range(limit):
        candidates = (cost[:-1] < -TOL).nonzero()[0]
        if not candidates.size:
            return LPStatus.OPTIMAL
        entering = candidates[0]

        column = tab[entering]
        rows = (column > TOL).nonzero()[0]
        leaving = _leaving_row(rows, rhs[rows] / column[rows], basis[rows])
        if leaving < 0:
            return LPStatus.UNBOUNDED

        _pivot(tab, costs, basis, leaving, entering)
    raise RuntimeError("simplex failed to terminate within its pivot budget")


def _leaving_row(rows: np.ndarray, ratios: np.ndarray, basic: np.ndarray) -> int:
    """Bland's leaving row among the candidate rows, given their ratios and
    basic variables: a fold in row order that takes a row whose ratio is
    below the best by more than TOL, or within TOL of it with a smaller
    basic index; -1 if there is no candidate.

    Ties within TOL can chain the best upward, but never across a gap of
    more than 2·TOL in the sorted ratios: once the fold has met a row below
    the gap, a row above it is neither lower by TOL nor within TOL of the
    best, and before that, the first row below the gap replaces whatever it
    held. So when no other ratio lies within 2·TOL of the smallest, its
    row is the fold's outcome, found without the fold; that is nearly every
    pivot of the control LPs, whose candidate rows (about 75 per pivot on
    the 238-bus ladder) the fold would walk one Python float at a time.
    """
    if ratios.size:
        low = ratios.argmin()
        if np.count_nonzero(ratios <= ratios[low] + 2 * TOL) == 1:
            return int(rows[low])
    leaving, best, floor, best_basic = -1, math.inf, math.inf, -1
    for i, ratio, b in zip(rows.tolist(), ratios.tolist(), basic.tolist()):
        if ratio < floor or (abs(ratio - best) <= TOL and b < best_basic):
            leaving, best, floor, best_basic = i, ratio, ratio - TOL, b
    return leaving


def _pivot(tab, costs, basis, row, col) -> None:
    pivot_row = tab[:, row] / tab[col, row]
    tab[:, row] = pivot_row
    f = tab[col].copy()
    f[row] = 0.0
    cols = pivot_row[:-1].nonzero()[0]
    tab[cols] -= pivot_row[cols, None] * f
    np.subtract(tab[-1], f * pivot_row[-1], out=tab[-1], where=f != 0.0)
    costs -= costs[:, col, None] * pivot_row
    basis[row] = col


def _expel_artificials(tab, costs, basis, first_art: int) -> None:
    """Pivot basic artificials (necessarily at zero) onto real columns."""
    for i in (basis >= first_art).nonzero()[0]:
        real = (np.abs(tab[:first_art, i]) > TOL).nonzero()[0]
        if real.size:
            _pivot(tab, costs, basis, i, real[0])
