"""Shared fixtures and independent oracles.

The networks built here are pinned: tests assert properties that were
verified by hand against these exact parameter values, so changing a number
means re-deriving the expectations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gridcomm import powerflow
from gridcomm.network import Branch, Bus, BusKind, DG, NetworkModel
from gridcomm.network_io import load_network
from gridcomm.partition import Partition, WeightedGraph, modularity, partition_network
from gridcomm.powerflow import solve_power_flow
from gridcomm.sensitivity import compute_sensitivity_matrix
from gridcomm.synthetic import SynthSpec, generate_synthetic_network

FIXTURES = Path(__file__).parent / "fixtures"


def count_ybus_builds(monkeypatch) -> list:
    """Record one entry per build_ybus call, through whichever gridcomm
    module name it is called."""
    real = powerflow.build_ybus
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gridcomm") and getattr(module, "build_ybus", None) is real:
            monkeypatch.setattr(module, "build_ybus", counted)
    return calls


def prepared(net: NetworkModel, tolerance: float = 1e-10):
    """Solve, differentiate and partition a network for simulation entry."""
    sol = solve_power_flow(net, tolerance=tolerance)
    assert sol.converged, "fixture network must solve"
    sens = compute_sensitivity_matrix(net, sol)
    part, _ = partition_network(net, sens)
    return part, sens


# ---------------------------------------------------------------------------
# network builders


def two_bus(p: float = 0.0, q: float = 0.1, r: float = 0.0, x: float = 0.1, with_dg: bool = False) -> NetworkModel:
    buses = [
        Bus(0, BusKind.SLACK, 12.47),
        Bus(1, BusKind.PQ, 12.47, p_load=p, q_load=q),
    ]
    dgs = [DG(id=1, bus=1, p_out=0.0, q_out=0.0, p_surplus=0.5, q_surplus=0.5)] if with_dg else []
    return NetworkModel(s_base=1.0, buses=buses, branches=[Branch(0, 1, r, x)], dgs=dgs)


@pytest.fixture
def net6() -> NetworkModel:
    return load_network(FIXTURES / "net6.json")


@pytest.fixture
def net6_path() -> Path:
    return FIXTURES / "net6.json"


def synth30() -> NetworkModel:
    """30-bus meshed network: 1 slack, 4 primary, 5x5 secondary grid, 6 DGs."""
    return generate_synthetic_network(
        SynthSpec(n_feeders=2, n_transformers=4, grid_rows=5, grid_cols=5, n_loads=14, n_dgs=6, seed=0)
    )


def overvoltage30() -> NetworkModel:
    """synth30 with three DGs injecting enough reactive power to push their
    corner of the grid above 1.06 pu, violation confined to one region."""
    net = synth30()
    settings = {20: 0.28, 21: 0.40, 25: 0.40}
    for d in net.dgs:
        if d.id in settings:
            d.q_out = settings[d.id]
            d.q_surplus = 0.8
    net.bus_by_id(15).q_load += 0.08
    return net


def trip_restore30() -> NetworkModel:
    """synth30 where DG 21 props up heavily loaded bus 27: tripping 21 dips
    exactly that one bus below 0.95 pu."""
    net = synth30()
    net.dg_by_id(21).q_out = 0.1
    net.dg_by_id(21).q_surplus = 0.3
    net.bus_by_id(27).q_load += 0.6
    return net


def null_trip30() -> NetworkModel:
    """synth30 with DG 21's output zeroed, so tripping it changes no
    electrical quantity and subset regrouping is exactly invertible."""
    net = synth30()
    dg = net.dg_by_id(21)
    dg.p_out = 0.0
    dg.q_out = 0.0
    return net


def write_scenario(path: Path, events: list[dict], duration: int | None = None, name: str | None = None) -> Path:
    doc: dict = {"events": events}
    if duration is not None:
        doc["duration"] = duration
    if name is not None:
        doc["name"] = name
    path.write_text(json.dumps(doc, indent=2))
    return path


# ---------------------------------------------------------------------------
# graph fixtures for the partitioner


def two_triangles() -> np.ndarray:
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[a, b] = w[b, a] = 1.0
    return w


def k4() -> np.ndarray:
    w = np.ones((4, 4)) - np.eye(4)
    return w


def barbell8() -> np.ndarray:
    w = np.zeros((8, 8))
    for block in (range(4), range(4, 8)):
        for a in block:
            for b in block:
                if a != b:
                    w[a, b] = 1.0
    w[3, 4] = w[4, 3] = 1.0
    return w


def random_graph(rng: np.random.Generator, n: int, density: float = 0.5) -> np.ndarray:
    """Connected-ish random symmetric nonnegative weight matrix."""
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = np.triu(w, 1)
    for i in range(n - 1):
        if w[i, i + 1 :].sum() == 0 and w[:i, i].sum() == 0:
            w[i, i + 1] = rng.random() + 0.1
    w = w + w.T
    if w.sum() == 0:
        w[0, 1] = w[1, 0] = 1.0
    return w


# ---------------------------------------------------------------------------
# independent oracles


def set_partitions(n: int):
    """All partitions of range(n) as lists of blocks (restricted growth strings)."""
    labels = [0] * n

    def rec(i: int, maxl: int):
        if i == n:
            blocks: dict[int, list[int]] = {}
            for idx, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(idx)
            yield [blocks[k] for k in sorted(blocks)]
            return
        for lab in range(maxl + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxl, lab))

    yield from rec(1, 0) if n > 0 else iter(())


def brute_force_best_modularity(weights: np.ndarray) -> tuple[float, frozenset]:
    """Exhaustive maximum of modularity over every partition; n <= 8 only.

    Returns the optimum value and the argmax grouping as a frozenset of
    frozensets of node indices.
    """
    g = WeightedGraph.from_weights(weights)
    n = g.n_nodes
    assert n <= 8, "exhaustive search is exponential"
    best = -np.inf
    best_blocks = None
    for blocks in set_partitions(n):
        community_of = {}
        for c, block in enumerate(blocks):
            for node in block:
                community_of[node] = c
        m = modularity(g, Partition(community_of=community_of, n_communities=len(blocks), modularity=0.0))
        if m > best:
            best = m
            best_blocks = frozenset(frozenset(b) for b in blocks)
    return best, best_blocks


def lp_vertex_oracle(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Exact LP optimum by enumerating basic feasible points.

    Intersects every combination of n constraint hyperplanes, keeps feasible
    points, returns (min objective, argmin). None when infeasible. Unbounded
    problems are out of scope (callers use box-bounded fixtures).
    """
    from itertools import combinations

    n = a.shape[1]
    best: tuple[float, np.ndarray] | None = None
    for rows in combinations(range(a.shape[0]), n):
        sub = a[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        z = np.linalg.solve(sub, b[list(rows)])
        if np.all(a @ z <= b + 1e-9):
            val = float(c @ z)
            if best is None or val < best[0] - 1e-15:
                best = (val, z)
    return best
