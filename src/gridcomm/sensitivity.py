"""Injection-to-state sensitivities, solved as columns of the inverse
power-flow Jacobian.

At a converged operating point the linearization

    [dtheta]   [a_theta_p  a_theta_q] [dP]
    [dV]     = [a_vp       a_vq     ] [dQ]

maps per-unit injection changes at non-slack buses to angle and voltage
changes. ``SensitivityMatrix.columns`` solves for just the columns a caller
reads, and ``voltage_block`` for just their voltage rows, by one unit-column
solve (``BlockLU.solve_units``) that forms neither the unit right-hand side
nor the rows not asked for; the full inverse is never formed. Rows and
columns follow the non-slack buses in network order, not their ids:
``bus_ids`` lists them and ``row`` maps ids to them. ``pf`` is the flow whose
Jacobian is solved, through the block factor it keeps (``pf.factor``), so
every caller at one operating point shares one factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import DG, NetworkModel
from .powerflow import PowerFlowError, PowerFlowSolution, SingularJacobianError
from .powerflow import build_ybus  # noqa: F401  unused; bench/spans.py TARGETS looks it up here


class SensitivityMode(str, Enum):
    """Which voltage submatrix drives a computation: V-to-Q or V-to-P."""

    VQ = "vq"
    VP = "vp"


@dataclass
class SensitivityMatrix:
    bus_ids: list[int]  # non-slack bus ids, row/column order of every block
    pf: PowerFlowSolution  # the operating point differentiated
    row: dict[int, int]  # non-slack bus id -> row and column

    def row_of(self, bus_id: int) -> int:
        """The row of a non-slack bus id; ValueError if it has none."""
        try:
            return self.row[bus_id]
        except KeyError:
            raise ValueError(f"unknown bus id {bus_id}") from None

    def columns(self, mode: SensitivityMode, bus_ids: list[int], voltage_only: bool = False) -> np.ndarray:
        """Responses to a unit injection of the mode's kind (P or Q) at each
        bus, one column per bus: angle rows, then voltage rows, or the
        voltage rows alone. mode is a SensitivityMode or its value; any
        other raises ValueError. Raises SingularJacobianError if the
        Jacobian, or a diagonal block of its factor, is singular."""
        n1 = len(self.bus_ids)
        offset = n1 if SensitivityMode(mode) is SensitivityMode.VQ else 0
        units = np.array([offset + self.row_of(b) for b in bus_ids], dtype=int)
        try:
            return self.pf.factor.solve_units(units, np.arange(n1 if voltage_only else 0, 2 * n1))
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"the power-flow Jacobian is singular at the solved point ({exc})") from exc

    def voltage_block(self, mode: SensitivityMode) -> np.ndarray:
        """a_vq or a_vp: the voltage rows of the mode's columns at every bus."""
        return self.columns(mode, self.bus_ids, voltage_only=True)


@dataclass
class DGColumns:
    """Sensitivity columns at DG buses: rows all non-slack buses, columns
    ordered by DG id ascending."""

    matrix: np.ndarray  # voltage rows
    dg_ids: list[int]
    angles: np.ndarray  # angle rows


def compute_sensitivity_matrix(net: NetworkModel, sol: PowerFlowSolution) -> SensitivityMatrix:
    """Name the non-slack rows of sol, a converged flow of net, whose
    Jacobian ``columns`` solves.

    Raises PowerFlowError, quoting sol's ``stop_text``, if sol is
    unconverged, and ValueError if it was solved on other buses than net's.
    """
    if not sol.converged:
        raise PowerFlowError(f"power flow did not converge: {sol.stop_text()}")
    if sol.bus_ids != [b.id for b in net.buses]:
        raise ValueError("the power flow was solved on other buses than this network's")
    non_slack = sol.non_slack
    return SensitivityMatrix(bus_ids=non_slack, pf=sol, row={b: i for i, b in enumerate(non_slack)})


def dg_buses(sens: SensitivityMatrix, dgs: list[DG]) -> list[int]:
    """The buses of dgs; ValueError for one on the slack, which has no column."""
    for d in dgs:
        if d.bus not in sens.row:
            raise ValueError(f"DG {d.id} is on slack bus {d.bus}; no sensitivity column")
    return [d.bus for d in dgs]


def dg_columns(
    sens: SensitivityMatrix,
    net: NetworkModel,
    mode: SensitivityMode = SensitivityMode.VQ,
    online_only: bool = False,
) -> DGColumns:
    """The mode's columns at DG buses, from one solve; ValueError for a DG
    on the slack."""
    return dg_columns_at(sens, net.dgs_sorted(online_only=online_only), mode)


def dg_columns_at(sens: SensitivityMatrix, dgs: list[DG], mode: SensitivityMode) -> DGColumns:
    """The mode's columns at the buses of dgs (id ascending), from one
    solve; ValueError for a DG on the slack."""
    cols = sens.columns(mode, dg_buses(sens, dgs))
    n1 = len(sens.bus_ids)
    return DGColumns(matrix=cols[n1:], dg_ids=[d.id for d in dgs], angles=cols[:n1])
