"""Within-community voltage control: the community view a CA decides from,
neighboring-DG subsets, and the max-min adjustment LP.

A CommunityView holds one community's buses, DGs with their adjustment
bounds, the sensitivities between the two and its transformers' reverse-flow
rows; the LP is formulated over a view. A community's nodes are grouped into
subsets by their highest-influence DG; when a node violates its voltage
band, only its subset's DGs solve for the fix. Overvoltage maximizes the
minimum adjustment (least total decrease), undervoltage minimizes the
maximum (least total increase); both are cast as a standard LP through a
slack objective variable bounded by zero in the correction direction, so a
community already inside the band solves to the all-zero adjustment. Every
view field is an array or list over its buses, DGs or transformers, and
the LP fills one block of rows from each.

The run's sensitivity mode also decides which DG output control moves:
reactive output in vq mode, active output (curtailment) in vp mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .network import DG
from .powerflow import PowerFlowSolution
from .sensitivity import SensitivityMode
from .simplex import LPStatus, solve_inequality_lp

LP_TOL = 1e-9
# The voltage band in pu that control keeps the non-slack buses inside,
# unless a run names its own.
V_LIMITS = (0.95, 1.05)


class ControlDirection(str, Enum):
    OVERVOLTAGE = "overvoltage"
    UNDERVOLTAGE = "undervoltage"


# The DG output and surplus each mode moves.
_SETPOINT = {
    SensitivityMode.VQ: ("q_out", "q_surplus"),
    SensitivityMode.VP: ("p_out", "p_surplus"),
}


def setpoint(dg: DG, mode: SensitivityMode) -> float:
    """The DG output that control in this mode moves."""
    return getattr(dg, _SETPOINT[mode][0])


def capability_range(dg: DG, mode: SensitivityMode) -> tuple[float, float]:
    """(lo, hi) for the mode's setpoint: the output +/- its surplus. Taken
    on the as-loaded DG, it is the fixed range control may move it in."""
    out, surplus = _SETPOINT[mode]
    now, margin = getattr(dg, out), getattr(dg, surplus)
    return now - margin, now + margin


def apply_adjustment(dg: DG, mode: SensitivityMode, x: float, lo: float, hi: float) -> None:
    """Move the mode's setpoint by x, clamped to [lo, hi]; the other output
    is left alone."""
    out = _SETPOINT[mode][0]
    setattr(dg, out, min(max(getattr(dg, out) + x, lo), hi))


class UnboundedControlError(RuntimeError):
    """The control LP is unbounded; surplus bounds should make this impossible."""


@dataclass(frozen=True)
class Subset:
    """One node group and the DGs allowed to fix its violations."""

    anchor_dg: int
    dg_ids: tuple[int, ...]
    nodes: tuple[int, ...]


@dataclass
class CommunitySubsets:
    subsets: list[Subset]
    generation: int = 0


def derive_subsets(
    d_com: np.ndarray,
    node_ids: Sequence[int],
    dg_ids: Sequence[int],
    dg_bus_of: dict[int, int],
    generation: int = 0,
) -> CommunitySubsets:
    """Group nodes by their argmax DG; a subset's DG set is its anchor plus
    any of the community's online DGs sitting at member nodes."""
    d = np.asarray(d_com)
    subsets: list[Subset] = []
    for j, anchor in enumerate(dg_ids):
        rows = np.flatnonzero(d[:, j] == 1)
        if rows.size == 0:
            continue
        nodes = tuple(sorted(node_ids[r] for r in rows))
        located = {g for g in dg_ids if dg_bus_of.get(g) in nodes}
        subsets.append(Subset(anchor_dg=anchor, dg_ids=tuple(sorted({anchor} | located)), nodes=nodes))
    subsets.sort(key=lambda s: s.anchor_dg)
    return CommunitySubsets(subsets=subsets, generation=generation)


@dataclass(frozen=True)
class CommunityView:
    """Everything one CA decides from, and the input of its LP: its own
    buses and available DGs, and the sensitivities between them at the
    current operating point."""

    node_ids: list[int]  # non-slack buses, id ascending
    v0: np.ndarray  # their voltage magnitudes
    dg_ids: list[int]  # online, reachable, not excluded; id ascending
    x_lower: np.ndarray  # how far each DG's setpoint in the run's mode may
    x_upper: np.ndarray  # move down and up inside its capability range
    v_sens: np.ndarray  # node_ids x dg_ids voltage sensitivities
    # One reverse-flow row per transformer touching the community,
    # flow_rows . x <= flow_rhs: its "primary->secondary" label, the
    # secondary-minus-primary angle sensitivities (transformers x dg_ids),
    # and the primary-minus-secondary angle less the phase shift.
    flow_labels: list[str]
    flow_rows: np.ndarray
    flow_rhs: np.ndarray

    def __post_init__(self) -> None:
        n, k, t = len(self.node_ids), len(self.dg_ids), len(self.flow_labels)
        if self.v_sens.shape != (n, k):
            raise ValueError(f"v_sens must be {n}x{k}, got {self.v_sens.shape}")
        if self.v0.shape != (n,) or self.x_lower.shape != (k,) or self.x_upper.shape != (k,):
            raise ValueError("v0/x_lower/x_upper shapes inconsistent with node/DG lists")
        if self.flow_rows.shape != (t, k) or self.flow_rhs.shape != (t,):
            raise ValueError(
                f"flow_rows must be {t}x{k} and flow_rhs {t} long, got {self.flow_rows.shape} and {self.flow_rhs.shape}"
            )


@dataclass
class LinearProgram:
    """Inequality-form instance over variables [x_0..x_{k-1}, y]."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    row_labels: list[tuple]


@dataclass
class ControlSolution:
    x: np.ndarray | None  # one adjustment per DG of the view, in its order
    objective: float | None
    feasible: bool
    binding: list[tuple] = field(default_factory=list)


def formulate_lp(view: CommunityView, direction: ControlDirection, v_min: float, v_max: float) -> LinearProgram:
    """Transcribe the adjustment of a view's DGs that corrects the direction
    inside [v_min, v_max] into min c.z, A z <= b. Whether the run's mode can
    correct this direction at all is the caller's to decide.

    Row order: voltage upper band per node, lower band per node, adjustment
    upper/lower bounds per DG, one reverse-flow row per transformer, the
    max-min coupling rows, and the zero cap on the objective variable.
    """
    if not view.dg_ids:
        raise ValueError("control LP needs at least one DG")
    k = len(view.dg_ids)
    n = len(view.node_ids)
    t = len(view.flow_labels)
    over = direction is ControlDirection.OVERVOLTAGE
    sign = -1.0 if over else 1.0  # the x_j side of the coupling rows
    dgs = np.arange(k)

    # Every block is filled into zeros, so an entry no row sets is +0.0.
    a = np.zeros((2 * n + 3 * k + t + 1, k + 1))
    a[:n, :k] = view.v_sens
    np.negative(view.v_sens, out=a[n : 2 * n, :k])
    r = 2 * n
    a[r + dgs, dgs] = 1.0
    a[r + k + dgs, dgs] = -1.0
    r += 2 * k
    a[r : r + t, :k] = view.flow_rows
    r += t
    a[r + dgs, dgs] = sign  # over: y <= x_j; under: x_j <= y
    a[r : r + k, k] = -sign
    a[-1, k] = -sign  # the objective variable capped at zero

    b = np.zeros(len(a))
    b[:n] = v_max - view.v0
    b[n : 2 * n] = view.v0 - v_min
    b[2 * n : 2 * n + k] = view.x_upper
    b[2 * n + k : 2 * n + 2 * k] = -view.x_lower
    b[2 * n + 2 * k : r] = view.flow_rhs

    labels: list[tuple] = [("v_upper", node) for node in view.node_ids]
    labels += [("v_lower", node) for node in view.node_ids]
    labels += [("surplus_upper", dg) for dg in view.dg_ids]
    labels += [("surplus_lower", dg) for dg in view.dg_ids]
    labels += [("reverse_flow", label) for label in view.flow_labels]
    labels += [("maxmin", dg) for dg in view.dg_ids]
    labels.append(("objective_cap",))

    c = np.zeros(k + 1)
    c[k] = -1.0 if over else 1.0
    return LinearProgram(c=c, a_ub=a, b_ub=b, row_labels=labels)


def solve_lp(lp: LinearProgram) -> ControlSolution:
    """Solve to an optimal basic solution, or report infeasibility.

    Unboundedness means the formulation lost its surplus bounds and is an
    error, not a result.
    """
    result = solve_inequality_lp(lp.c, lp.a_ub, lp.b_ub)
    if result.status is LPStatus.INFEASIBLE:
        return ControlSolution(x=None, objective=None, feasible=False)
    if result.status is LPStatus.UNBOUNDED:
        raise UnboundedControlError("control LP unbounded; check surplus bounds")
    z = result.x
    residual = lp.a_ub @ z - lp.b_ub
    binding = [lab for lab, r in zip(lp.row_labels, residual) if abs(r) <= LP_TOL]
    return ControlSolution(x=z[:-1].copy(), objective=float(z[-1]), feasible=True, binding=binding)


@dataclass(frozen=True)
class LimitViolation:
    bus: int
    v_mag: float
    side: str  # "low" | "high"


def scan_voltage_limits(
    sol: PowerFlowSolution, v_min: float = V_LIMITS[0], v_max: float = V_LIMITS[1]
) -> list[LimitViolation]:
    """All buses outside the band, bus id ascending. The slack bus is pinned
    by definition and skipped."""
    out = []
    for i, bus_id in enumerate(sol.bus_ids):
        if i == sol.slack_index:
            continue
        v = float(sol.v_mag[i])
        if v < v_min:
            out.append(LimitViolation(bus=bus_id, v_mag=v, side="low"))
        elif v > v_max:
            out.append(LimitViolation(bus=bus_id, v_mag=v, side="high"))
    return sorted(out, key=lambda lv: lv.bus)
