"""Deterministic synthetic test networks.

Shape: one slack bus feeding radial medium-voltage feeder chains; each
feeder bus carries a step-down transformer onto a meshed low-voltage grid
(a rows x cols lattice). Loads sit on distinct grid buses and DGs on a
subset of the load buses, so every DG competes with local demand the way
rooftop units do. All randomness flows through one seeded generator, making
generation bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import DG, Branch, Bus, BusKind, NetworkModel, Transformer, validate_network

PRIMARY_KV = 13.8
SECONDARY_KV = 0.48


class SynthesisError(RuntimeError):
    """Generated network failed validation; indicates a generator bug."""


@dataclass(frozen=True)
class SynthSpec:
    n_feeders: int = 2
    n_transformers: int = 4
    grid_rows: int = 4
    grid_cols: int = 4
    n_loads: int = 10
    n_dgs: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        cells = self.grid_rows * self.grid_cols
        if self.n_feeders < 1:
            raise ValueError("need at least one feeder")
        if self.n_transformers < self.n_feeders:
            raise ValueError("each feeder needs at least one transformer bus")
        if self.grid_rows < 2 or self.grid_cols < 2:
            raise ValueError("grid must be at least 2x2 to be meshed")
        if not 1 <= self.n_loads <= cells:
            raise ValueError(f"n_loads must be in [1, {cells}]")
        if not 1 <= self.n_dgs <= self.n_loads:
            raise ValueError("n_dgs must be in [1, n_loads]")
        if self.n_transformers > cells:
            raise ValueError("more transformers than grid buses")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def generate_synthetic_network(spec: SynthSpec) -> NetworkModel:
    rng = np.random.default_rng(spec.seed)
    s_base = 10.0

    buses = [Bus(id=0, kind=BusKind.SLACK, base_kv=PRIMARY_KV, v_mag=1.0, v_ang=0.0)]
    primary_ids = list(range(1, spec.n_transformers + 1))
    for pid in primary_ids:
        buses.append(Bus(id=pid, kind=BusKind.PQ, base_kv=PRIMARY_KV))
    grid0 = primary_ids[-1] + 1
    grid_ids = [grid0 + k for k in range(spec.grid_rows * spec.grid_cols)]
    for gid in grid_ids:
        buses.append(Bus(id=gid, kind=BusKind.PQ, base_kv=SECONDARY_KV))

    branches: list[Branch] = []

    # Feeder chains: contiguous blocks of primary buses, first blocks one longer
    # when the split is uneven.
    base, extra = divmod(spec.n_transformers, spec.n_feeders)
    cursor = 0
    for f in range(spec.n_feeders):
        size = base + (1 if f < extra else 0)
        chain = primary_ids[cursor : cursor + size]
        cursor += size
        prev = 0
        for pid in chain:
            r = 0.010 * rng.uniform(0.8, 1.2)
            x = 0.040 * rng.uniform(0.8, 1.2)
            branches.append(Branch(from_bus=prev, to_bus=pid, r=r, x=x))
            prev = pid

    # Meshed low-voltage lattice.
    def cell(i: int, j: int) -> int:
        return grid0 + i * spec.grid_cols + j

    for i in range(spec.grid_rows):
        for j in range(spec.grid_cols):
            if j + 1 < spec.grid_cols:
                r = 0.030 * rng.uniform(0.7, 1.3)
                branches.append(Branch(from_bus=cell(i, j), to_bus=cell(i, j + 1), r=r, x=r * rng.uniform(0.8, 1.2)))
            if i + 1 < spec.grid_rows:
                r = 0.030 * rng.uniform(0.7, 1.3)
                branches.append(Branch(from_bus=cell(i, j), to_bus=cell(i + 1, j), r=r, x=r * rng.uniform(0.8, 1.2)))

    drop_points = np.sort(rng.choice(len(grid_ids), size=spec.n_transformers, replace=False))
    transformers = []
    for pid, gpos in zip(primary_ids, drop_points):
        x = 0.060 * rng.uniform(0.85, 1.15)
        transformers.append(
            Transformer(primary_bus=pid, secondary_bus=grid_ids[int(gpos)], r=x / 6.0, x=x)
        )

    load_points = np.sort(rng.choice(len(grid_ids), size=spec.n_loads, replace=False))
    load_buses = [grid_ids[int(k)] for k in load_points]
    by_id = {b.id: b for b in buses}
    for lb in load_buses:
        p = rng.uniform(0.008, 0.022)
        by_id[lb].p_load = p
        by_id[lb].q_load = p * rng.uniform(0.3, 0.5)

    dg_points = np.sort(rng.choice(len(load_buses), size=spec.n_dgs, replace=False))
    dgs = []
    for k in dg_points:
        bus = load_buses[int(k)]
        dgs.append(
            DG(
                id=bus,
                bus=bus,
                p_out=rng.uniform(0.004, 0.012),
                q_out=0.0,
                p_surplus=rng.uniform(0.005, 0.015),
                q_surplus=rng.uniform(0.08, 0.20),
            )
        )

    net = NetworkModel(
        s_base=s_base, buses=buses, branches=branches, transformers=transformers, dgs=dgs
    )
    problems = validate_network(net)
    if problems:
        raise SynthesisError(f"synthetic network failed validation: {problems}")
    return net
