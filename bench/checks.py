"""Output checks made apart from the program.

Each checker recomputes what it tests from first principles (its own
Y-bus, its own modularity formula, its own union-find) or tests a property
the method must have; none compares against a stored copy of earlier
output. Checkers return a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

MISMATCH_TOL = 1e-6
MODULARITY_TOL = 1e-9
LP_OBJECTIVE_TOL = 1e-7
BOX_TOL = 1e-12


# ---------------------------------------------------------------- power flow


def admittance(bus_ids, branches, transformers) -> np.ndarray:
    """Bus admittance matrix from the branch and transformer lists.

    Lines are pi sections with half the charging at each end. A transformer
    with complex ratio t = tap * exp(j*shift) on the primary side contributes
    y/tap^2, -y/conj(t), -y/t and y to its primary-primary, primary-secondary,
    secondary-primary and secondary-secondary entries.
    """
    pos = {b: i for i, b in enumerate(bus_ids)}
    y = np.zeros((len(bus_ids), len(bus_ids)), dtype=complex)
    if branches:
        f = np.array([pos[br.from_bus] for br in branches])
        t = np.array([pos[br.to_bus] for br in branches])
        ys = 1.0 / (np.array([br.r for br in branches]) + 1j * np.array([br.x for br in branches]))
        half_b = 0.5j * np.array([br.b_shunt for br in branches])
        np.add.at(y, (f, f), ys + half_b)
        np.add.at(y, (t, t), ys + half_b)
        np.add.at(y, (f, t), -ys)
        np.add.at(y, (t, f), -ys)
    for tr in transformers:
        p, s = pos[tr.primary_bus], pos[tr.secondary_bus]
        ys = 1.0 / complex(tr.r, tr.x)
        ratio = tr.tap * complex(np.cos(tr.phase_shift), np.sin(tr.phase_shift))
        y[p, p] += ys / (tr.tap**2)
        y[p, s] -= ys / ratio.conjugate()
        y[s, p] -= ys / ratio
        y[s, s] += ys
    return y


def scheduled_injection(net, bus_ids) -> np.ndarray:
    """Complex injection per bus: online DG output minus load."""
    pos = {b: i for i, b in enumerate(bus_ids)}
    s = np.zeros(len(bus_ids), dtype=complex)
    for b in net.buses:
        s[pos[b.id]] -= complex(b.p_load, b.q_load)
    for d in net.dgs:
        if d.online:
            s[pos[d.bus]] += complex(d.p_out, d.q_out)
    return s


def max_mismatch(y: np.ndarray, v_mag, v_ang, s_spec: np.ndarray, slack: int) -> float:
    """Largest |dP| or |dQ| over the non-slack buses at the given voltages."""
    v = np.asarray(v_mag) * np.exp(1j * np.asarray(v_ang))
    s_calc = v * np.conj(y @ v)
    d = np.delete(s_spec - s_calc, slack)
    return float(max(np.max(np.abs(d.real), initial=0.0), np.max(np.abs(d.imag), initial=0.0)))


def check_operating_point(y: np.ndarray, net, pf) -> list[str]:
    mis = max_mismatch(y, pf.v_mag, pf.v_ang, scheduled_injection(net, pf.bus_ids), pf.slack_index)
    if not mis <= MISMATCH_TOL:
        return [f"power mismatch {mis:.3e} pu at the reported operating point exceeds {MISMATCH_TOL}"]
    return []


def check_dg_boxes(net, as_loaded: dict[int, tuple[float, float, float, float]]) -> list[str]:
    """Every DG output inside its as-loaded output +/- surplus."""
    out = []
    for d in net.dgs:
        p0, q0, ps, qs = as_loaded[d.id]
        if not (p0 - ps - BOX_TOL <= d.p_out <= p0 + ps + BOX_TOL and q0 - qs - BOX_TOL <= d.q_out <= q0 + qs + BOX_TOL):
            out.append(f"DG {d.id} output ({d.p_out!r}, {d.q_out!r}) left its capability box")
    return out


# ---------------------------------------------------------------- partition


def modularity(weights: np.ndarray, labels) -> float:
    """Weighted modularity, sum over communities of W_in/2m - (K/2m)^2, with
    W_in and 2m summed over ordered node pairs."""
    w = np.asarray(weights, dtype=float)
    labels = np.asarray(labels)
    _, inverse = np.unique(labels, return_inverse=True)
    onehot = np.zeros((len(labels), inverse.max() + 1))
    onehot[np.arange(len(labels)), inverse] = 1.0
    two_m = w.sum()
    inside = np.trace(onehot.T @ w @ onehot)
    degree = onehot.T @ w.sum(axis=1)
    return float(inside / two_m - np.sum((degree / two_m) ** 2))


def replay_blocks(n_nodes: int, merges: list[tuple[int, int]]) -> set[frozenset[int]]:
    """Blocks left after applying the merges with a plain union-find."""
    parent = list(range(n_nodes))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in merges:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    blocks: dict[int, set[int]] = {}
    for i in range(n_nodes):
        blocks.setdefault(root(i), set()).add(i)
    return {frozenset(s) for s in blocks.values()}


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def read_assignment(out_dir: Path) -> dict[int, int]:
    rows = read_rows(out_dir / "node_assignment.csv")
    return {int(bus): int(c) for bus, c in rows[1:]}


def read_dendrogram(out_dir: Path) -> tuple[list[tuple[int, int]], list[float]]:
    rows = read_rows(out_dir / "dendrogram.csv")[1:]
    merges = [(int(a), int(b)) for _, a, b, _ in rows[1:]]
    return merges, [float(q) for *_, q in rows]


def check_partition(out_dir: Path, bus_ids: list[int], slack: int, k: int, q_printed: float, weights) -> list[str]:
    """node_assignment.csv against the bus list, the dendrogram replay and
    the modularity computed here; weights is the node graph (non-slack buses
    in file order)."""
    problems = []
    rows = read_rows(out_dir / "node_assignment.csv")[1:]
    buses = [int(r[0]) for r in rows]
    if sorted(buses) != sorted(bus_ids) or len(set(buses)) != len(buses):
        problems.append("node_assignment.csv does not list every bus exactly once")
    assignment = {int(bus): int(c) for bus, c in rows}
    if sorted(set(assignment.values())) != list(range(k)):
        problems.append(f"community ids are not 0..{k - 1}")

    merges, trace = read_dendrogram(out_dir)
    nodes = [b for b in bus_ids if b != slack]
    if len(merges) != len(nodes) - 1:
        problems.append(f"dendrogram has {len(merges)} merges for {len(nodes)} nodes")
    best = int(np.argmax(trace))
    replayed = replay_blocks(len(nodes), merges[:best])
    written: dict[int, set[int]] = {}
    for i, bus in enumerate(nodes):
        written.setdefault(assignment.get(bus, -1), set()).add(i)
    if replayed != {frozenset(s) for s in written.values()}:
        problems.append("replaying the dendrogram to its modularity peak does not give the written blocks")
    if abs(q_printed - max(trace)) > MODULARITY_TOL:
        problems.append(f"printed modularity {q_printed!r} is not the dendrogram maximum {max(trace)!r}")
    q_here = modularity(weights, [assignment.get(b, -1) for b in nodes])
    if abs(q_printed - q_here) > MODULARITY_TOL:
        problems.append(f"printed modularity {q_printed!r} differs from the recomputed {q_here!r}")
    return problems


# ---------------------------------------------------------------- simulation


def message_problems(messages, community_of_bus: dict[int, int], dg_bus: dict[int, int]) -> list[str]:
    """Every message's sender and receiver sit in the same community.
    Agents are 'BA:<bus>', 'CA:<community>' and 'DA:<dg>'."""

    def community(agent: str) -> int:
        kind, index = agent.split(":")
        if kind == "BA":
            return community_of_bus[int(index)]
        if kind == "DA":
            return community_of_bus[dg_bus[int(index)]]
        return int(index)

    bad = [m for m in messages if community(m[0]) != community(m[1])]
    return [f"{len(bad)} messages cross communities, first {bad[0]}"] if bad else []


# ---------------------------------------------------------------- LP


def lp_problems(lps) -> list[str]:
    """Each (c, A, b, feasible, objective) against scipy's HiGHS."""
    from scipy.optimize import linprog

    out = []
    for c, a, b, feasible, objective in lps:
        ref = linprog(c, A_ub=a, b_ub=b, bounds=[(None, None)] * len(c), method="highs")
        if ref.status not in (0, 2):
            out.append(f"reference LP solver returned status {ref.status} ({ref.message})")
        elif (ref.status == 0) != feasible:
            out.append(f"LP feasibility disagrees with HiGHS: simplex {feasible}, HiGHS {ref.status == 0}")
        elif feasible and abs(ref.fun - objective) > LP_OBJECTIVE_TOL:
            out.append(f"LP objective {objective!r} differs from HiGHS {ref.fun!r}")
    return out


# ---------------------------------------------------------------- digests


def digest(paths) -> str:
    """SHA-256 over files, or over every file under directories, with each
    file's name relative to its root mixed in."""
    h = hashlib.sha256()
    for root in paths:
        root = Path(root)
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
        for p in files:
            h.update(str(p.relative_to(root) if root.is_dir() else p.name).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()
