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

taken on the non-slack rows and columns only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BusKind, NetworkModel


class SingularJacobianError(RuntimeError):
    """The power-flow Jacobian is singular at the current operating point."""


class PowerFlowError(RuntimeError):
    """A power flow needed by a downstream step failed to converge."""


MAX_ITER = 50  # Newton iterations before a solve is declared unconverged


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
    ``jacobian()``.
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

    @property
    def non_slack(self) -> list[int]:
        return [self.bus_ids[i] for i in self.non_slack_pos]

    def v_of(self, bus_id: int) -> float:
        return float(self.v_mag[lookup(self.index_of, bus_id)])

    def jacobian(self) -> np.ndarray:
        """The Newton Jacobian at these voltages, built as the solve builds it."""
        return _jacobian(self.ybus, self.v_mag, self.v_ang, self.non_slack_pos)

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


def _jacobian(ybus: np.ndarray, v: np.ndarray, th: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """The polar Jacobian on the non-slack rows and columns, from the complex
    derivatives dS/dtheta and dS/d|V| (module docstring)."""
    vc = v * np.exp(1j * th)
    i = (ybus @ vc)[ns]
    vs, unit = vc[ns], np.exp(1j * th[ns])  # V and V/|V| on the non-slack buses
    y = ybus[np.ix_(ns, ns)]
    dth = 1j * vs[:, None] * np.conj(np.diag(i) - y * vs)
    dv = vs[:, None] * np.conj(y * unit) + np.diag(np.conj(i) * unit)
    return np.block([[dth.real, dv.real], [dth.imag, dv.imag]])


def solve_power_flow(net: NetworkModel, tolerance: float = 1e-8) -> PowerFlowSolution:
    """Newton-Raphson solve from a flat start (1.0 pu, 0 rad; the slack at
    its own v_mag/v_ang) until the largest mismatch is within tolerance;
    deterministic for a fixed network and tolerance.

    Non-convergence within MAX_ITER (or a diverging iterate) returns a
    solution flagged converged=False. A singular Jacobian at the starting
    point raises SingularJacobianError; one appearing mid-run after wild
    steps is treated as divergence.
    """
    bus_ids = [b.id for b in net.buses]
    index_of = {bid: i for i, bid in enumerate(bus_ids)}
    slack_idx = index_of[net.slack_bus.id]
    ns = np.array([i for i in range(len(bus_ids)) if i != slack_idx], dtype=int)

    ybus = build_ybus(net, index_of)
    s_spec = _injections(net, index_of)

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
        jac = _jacobian(ybus, v, th, ns)
        try:
            dx = np.linalg.solve(jac, mis)
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
    )
