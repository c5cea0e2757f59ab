"""Injection-to-state sensitivities from the inverse power-flow Jacobian.

At a converged operating point the linearization

    [dtheta]   [a_theta_p  a_theta_q] [dP]
    [dV]     = [a_vp       a_vq     ] [dQ]

maps per-unit injection changes at non-slack buses to angle and voltage
changes. Rows and columns follow the order of the non-slack buses in the
network (the file's bus order for a loaded network), not their ids:
``SensitivityMatrix.bus_ids`` lists them and ``row`` maps ids to them. The
matrix keeps the solved flow it was taken at as ``pf``; the inverted matrix
is that flow's own ``jacobian()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import NetworkModel
from .powerflow import PowerFlowSolution, SingularJacobianError, lookup
from .powerflow import build_ybus  # noqa: F401  unused; bench/spans.py TARGETS looks it up here


class SensitivityMode(str, Enum):
    """Which voltage submatrix drives a computation: V-to-Q or V-to-P."""

    VQ = "vq"
    VP = "vp"


@dataclass
class SensitivityMatrix:
    bus_ids: list[int]  # non-slack bus ids, row/column order of every block
    a_theta_p: np.ndarray
    a_theta_q: np.ndarray
    a_vp: np.ndarray
    a_vq: np.ndarray
    pf: PowerFlowSolution  # the operating point differentiated
    row: dict[int, int]  # non-slack bus id -> row and column

    def row_of(self, bus_id: int) -> int:
        return lookup(self.row, bus_id)

    def voltage_block(self, mode: SensitivityMode) -> np.ndarray:
        return self.a_vq if mode is SensitivityMode.VQ else self.a_vp

    def angle_block(self, mode: SensitivityMode) -> np.ndarray:
        return self.a_theta_q if mode is SensitivityMode.VQ else self.a_theta_p

    def angle_row(self, bus_id: int, mode: SensitivityMode) -> np.ndarray:
        """Angle-sensitivity row for a bus; zeros for the slack (fixed angle)."""
        row = self.row.get(bus_id)
        return np.zeros(len(self.bus_ids)) if row is None else self.angle_block(mode)[row]


@dataclass
class DGColumns:
    """Voltage-sensitivity columns at DG buses: rows all non-slack buses,
    columns ordered by DG id ascending."""

    matrix: np.ndarray
    dg_ids: list[int]
    bus_rows: list[int]  # each DG bus's row (and column) in the sensitivity blocks


def compute_sensitivity_matrix(net: NetworkModel, sol: PowerFlowSolution) -> SensitivityMatrix:
    """Invert the Jacobian of sol, a converged flow of net, and name its
    four blocks.

    Raises ValueError if sol is unconverged or was solved on other buses
    than net's, and SingularJacobianError if the operating point admits no
    inverse.
    """
    if not sol.converged:
        raise ValueError("sensitivity requires a converged power flow")
    if sol.bus_ids != [b.id for b in net.buses]:
        raise ValueError("the power flow was solved on other buses than this network's")
    try:
        inv = np.linalg.inv(sol.jacobian())
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(str(exc)) from exc
    non_slack = sol.non_slack
    n1 = len(non_slack)
    return SensitivityMatrix(
        bus_ids=non_slack,
        a_theta_p=inv[:n1, :n1],
        a_theta_q=inv[:n1, n1:],
        a_vp=inv[n1:, :n1],
        a_vq=inv[n1:, n1:],
        pf=sol,
        row={b: i for i, b in enumerate(non_slack)},
    )


def dg_columns(
    sens: SensitivityMatrix,
    net: NetworkModel,
    mode: SensitivityMode = SensitivityMode.VQ,
    online_only: bool = False,
) -> DGColumns:
    """Column-slice of the voltage block at DG buses.

    Raises ValueError for a DG sitting on the slack bus (no sensitivity
    column exists there).
    """
    dgs = net.dgs_sorted(online_only=online_only)
    for d in dgs:
        if d.bus not in sens.row:
            raise ValueError(f"DG {d.id} is on slack bus {d.bus}; no sensitivity column")
    bus_rows = [sens.row[d.bus] for d in dgs]
    block = sens.voltage_block(mode)
    matrix = np.column_stack([block[:, r] for r in bus_rows]) if dgs else np.zeros((len(sens.bus_ids), 0))
    return DGColumns(matrix=matrix, dg_ids=[d.id for d in dgs], bus_rows=bus_rows)
