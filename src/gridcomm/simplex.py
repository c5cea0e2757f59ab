"""Dense two-phase simplex for small inequality-form linear programs.

Solves min c.z subject to A z <= b with free variables z (split internally
into nonnegative pairs). Bland's rule picks both the entering and the
leaving variable, so the method cannot cycle and is fully deterministic for
a fixed column order. Problem sizes here are tens of variables at most;
no effort is spent on sparsity or revised-form updates.
"""

from __future__ import annotations

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

    # Split free variables, add one slack per row.
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
        status = _iterate(tableau, cost1, basis, extra=cost2)
        if status is not LPStatus.OPTIMAL or -cost1[-1] > 1e-7:
            return LPResult(LPStatus.INFEASIBLE, None, None)
        _expel_artificials(tableau, cost2, basis, first_art=2 * n + m)
        # Freeze the artificial columns out of phase 2. Their cost entries
        # must be cleared too, or a leftover negative entry would nominate a
        # frozen all-zero column and read as unboundedness.
        tableau[:, 2 * n + m : 2 * n + m + n_art] = 0.0
        cost2[2 * n + m : 2 * n + m + n_art] = 0.0

    # Reduce phase-2 costs against the current basis.
    for i in range(m):
        bi = basis[i]
        if cost2[bi] != 0.0:
            cost2 -= cost2[bi] * tableau[i]
    status = _iterate(tableau, cost2, basis)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, None, None)

    full = np.zeros(n_cols)
    for i in range(m):
        full[basis[i]] = tableau[i, -1]
    z = full[:n] - full[n : 2 * n]
    return LPResult(LPStatus.OPTIMAL, z, float(c @ z))


def _iterate(tableau: np.ndarray, cost: np.ndarray, basis: np.ndarray, extra=None) -> LPStatus:
    """Pivot to optimality with Bland's rule; cost (and extra) updated in place."""
    m = tableau.shape[0]
    limit = 2000 * (tableau.shape[1] + m)
    for _ in range(limit):
        entering = -1
        for j in range(tableau.shape[1] - 1):
            if cost[j] < -TOL:
                entering = j
                break
        if entering < 0:
            return LPStatus.OPTIMAL

        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            aij = tableau[i, entering]
            if aij > TOL:
                ratio = tableau[i, -1] / aij
                if ratio < best_ratio - TOL or (
                    abs(ratio - best_ratio) <= TOL and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return LPStatus.UNBOUNDED

        _pivot(tableau, cost, basis, leaving, entering, extra)
    raise RuntimeError("simplex failed to terminate within its pivot budget")


def _pivot(tableau, cost, basis, row, col, extra=None) -> None:
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


def _expel_artificials(tableau, cost2, basis, first_art: int) -> None:
    """Pivot basic artificials (necessarily at zero) onto real columns."""
    for i in range(tableau.shape[0]):
        if basis[i] >= first_art:
            for j in range(first_art):
                if abs(tableau[i, j]) > TOL:
                    _pivot(tableau, cost2, basis, i, j)
                    break
