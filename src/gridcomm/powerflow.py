"""Newton-Raphson AC power flow on meshed per-unit networks.

The solver works in polar coordinates with the full (unscaled) Jacobian,

    [dP]   [dP/dtheta  dP/dV] [dtheta]
    [dQ] = [dQ/dtheta  dQ/dV] [dV]

so that the inverse of the converged Jacobian is directly the injection-to-
state sensitivity matrix used downstream. All non-slack buses are PQ; DGs
enter as negative load at their bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import BusKind, NetworkModel


class SingularJacobianError(RuntimeError):
    """The power-flow Jacobian is singular at the current operating point."""


class PowerFlowError(RuntimeError):
    """A power flow needed by a downstream step failed to converge."""


@dataclass
class PowerFlowOptions:
    tolerance: float = 1e-8
    max_iter: int = 50
    flat_start: bool = True


def lookup(index: dict[int, int], bus_id: int) -> int:
    """Position of a bus id in an id -> position map; ValueError if absent."""
    try:
        return index[bus_id]
    except KeyError:
        raise ValueError(f"unknown bus id {bus_id}") from None


@dataclass
class PowerFlowSolution:
    """Bus voltages at a solved (or abandoned) operating point, and the
    options it was solved with.

    v_mag/v_ang are indexed by position in NetworkModel.buses; bus_ids maps
    positions back to ids and index_of ids to positions.
    """

    bus_ids: list[int]
    index_of: dict[int, int]
    v_mag: np.ndarray
    v_ang: np.ndarray
    converged: bool
    iterations: int
    max_mismatch: float
    options: PowerFlowOptions
    slack_index: int = 0
    non_slack: list[int] = field(default_factory=list)

    def v_of(self, bus_id: int) -> float:
        return float(self.v_mag[lookup(self.index_of, bus_id)])

    def solves(self, net: NetworkModel) -> bool:
        """Whether these voltages solve net's current injections within the
        solution's own tolerance (the test Newton stops on)."""
        if self.bus_ids != [b.id for b in net.buses]:
            return False
        ns = np.array([self.index_of[b] for b in self.non_slack], dtype=int)
        p_spec, q_spec = _injections(net, self.index_of)
        mis, _, _ = _mismatch(build_ybus(net, self.index_of), p_spec, q_spec, self.v_mag, self.v_ang, ns)
        return bool(np.max(np.abs(mis)) <= self.options.tolerance)


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


def _injections(net: NetworkModel, index_of: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    n = len(net.buses)
    p = np.zeros(n)
    q = np.zeros(n)
    for b in net.buses:
        i = index_of[b.id]
        p[i] -= b.p_load
        q[i] -= b.q_load
    for d in net.dgs:
        if d.online:
            i = index_of[d.bus]
            p[i] += d.p_out
            q[i] += d.q_out
    return p, q


def _calc_pq(ybus: np.ndarray, v: np.ndarray, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vc = v * np.exp(1j * th)
    s = vc * np.conj(ybus @ vc)
    return s.real, s.imag


def _mismatch(
    ybus: np.ndarray, p_spec: np.ndarray, q_spec: np.ndarray, v: np.ndarray, th: np.ndarray, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Specified minus calculated injections at the non-slack buses, P rows
    then Q rows, and the calculated P and Q."""
    p_calc, q_calc = _calc_pq(ybus, v, th)
    return np.concatenate([(p_spec - p_calc)[ns], (q_spec - q_calc)[ns]]), p_calc, q_calc


def _jacobian(
    ybus: np.ndarray, v: np.ndarray, th: np.ndarray, p_calc: np.ndarray, q_calc: np.ndarray, ns: np.ndarray
) -> np.ndarray:
    """Full polar Jacobian restricted to non-slack rows/columns.

    Block layout [[dP/dth, dP/dV], [dQ/dth, dQ/dV]] with true dV (unscaled).
    """
    g, b = ybus.real, ybus.imag
    dth = th[:, None] - th[None, :]
    cs, sn = np.cos(dth), np.sin(dth)
    vv = v[:, None] * v[None, :]

    h = vv * (g * sn - b * cs)          # dP/dtheta, off-diagonal
    n_ = v[:, None] * (g * cs + b * sn)  # dP/dV
    k = -vv * (g * cs + b * sn)          # dQ/dtheta
    l_ = v[:, None] * (g * sn - b * cs)  # dQ/dV

    np.fill_diagonal(h, -q_calc - b.diagonal() * v * v)
    np.fill_diagonal(n_, p_calc / v + g.diagonal() * v)
    np.fill_diagonal(k, p_calc - g.diagonal() * v * v)
    np.fill_diagonal(l_, q_calc / v - b.diagonal() * v)

    top = np.hstack([h[np.ix_(ns, ns)], n_[np.ix_(ns, ns)]])
    bot = np.hstack([k[np.ix_(ns, ns)], l_[np.ix_(ns, ns)]])
    return np.vstack([top, bot])


def solve_power_flow(net: NetworkModel, options: PowerFlowOptions | None = None) -> PowerFlowSolution:
    """Newton-Raphson solve; deterministic for a fixed network and options.

    Non-convergence within max_iter (or a diverging iterate) returns a
    solution flagged converged=False. A singular Jacobian at the starting
    point raises SingularJacobianError; one appearing mid-run after wild
    steps is treated as divergence.
    """
    opts = options or PowerFlowOptions()
    bus_ids = [b.id for b in net.buses]
    index_of = {bid: i for i, bid in enumerate(bus_ids)}
    slack_idx = index_of[net.slack_bus.id]
    ns = np.array([i for i in range(len(bus_ids)) if i != slack_idx], dtype=int)

    ybus = build_ybus(net, index_of)
    p_spec, q_spec = _injections(net, index_of)

    if opts.flat_start:
        v = np.ones(len(bus_ids))
        th = np.zeros(len(bus_ids))
    else:
        v = np.array([b.v_mag for b in net.buses], dtype=float)
        th = np.array([b.v_ang for b in net.buses], dtype=float)
    v[slack_idx] = net.slack_bus.v_mag
    th[slack_idx] = net.slack_bus.v_ang

    mis, p_calc, q_calc = _mismatch(ybus, p_spec, q_spec, v, th, ns)
    it = 0
    diverged = False
    while it < opts.max_iter:
        if not np.all(np.isfinite(mis)):
            diverged = True
            break
        if np.max(np.abs(mis)) <= opts.tolerance:
            break
        jac = _jacobian(ybus, v, th, p_calc, q_calc, ns)
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
        mis, p_calc, q_calc = _mismatch(ybus, p_spec, q_spec, v, th, ns)

    max_mis = float(np.max(np.abs(mis))) if np.all(np.isfinite(mis)) else float("inf")
    converged = (not diverged) and max_mis <= opts.tolerance
    return PowerFlowSolution(
        bus_ids=bus_ids,
        index_of=index_of,
        v_mag=v,
        v_ang=th,
        converged=converged,
        iterations=it,
        max_mismatch=max_mis,
        options=opts,
        slack_index=slack_idx,
        non_slack=[bus_ids[i] for i in ns],
    )
