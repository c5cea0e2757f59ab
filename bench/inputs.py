"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed. Networks come from
the package's synthetic generator and are then shaped by the benchmark
(raised DG outputs, wider capability boxes) before being written to JSON, so
the program under test only ever sees the written files and the event lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridcomm import network_io, synthetic
from gridcomm.network import NetworkModel
from gridcomm.simulation import Event, EventKind

CARVE_SPEC = dict(n_feeders=2, n_transformers=16, grid_rows=20, grid_cols=20, n_loads=200, n_dgs=60)
STORM_SPEC = dict(n_feeders=2, n_transformers=12, grid_rows=15, grid_cols=15, n_loads=120, n_dgs=40)
FLEET_SPEC = dict(n_feeders=2, n_transformers=4, grid_rows=5, grid_cols=5, n_loads=14, n_dgs=6)

# storm-238: a round is STORM_DAYS load cycles of STORM_DAY_TICKS ticks,
# each with its own swing and phase, so every round mixes light and heavy
# days whatever the seed.
STORM_DAYS = 4
STORM_DAY_TICKS = 12
STORM_TICKS = STORM_DAYS * STORM_DAY_TICKS
STORM_SWING = (0.8, 1.2)
STORM_LOAD_SCALE = 2.0
STORM_NETWORK_SEED = 0
STORM_RAISED = 6
STORM_RAISE_Q = (0.25, 0.35)
STORM_V_LIMITS = (0.95, 1.05)

# fleet-30: networks per batch and ticks per scenario.
FLEET_NETWORKS = 48
FLEET_DURATION = 6
FLEET_RAISED = 3
FLEET_LIFT = {"vq": (0.50, 0.70), "vp": (1.80, 2.20)}  # pu raise of Q (vq) or P (vp)


_STORM_STREAM, _FLEET_STREAM = 1, 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, purpose), so the inputs of one
    workload never shift when another workload draws more numbers."""
    return np.random.default_rng([seed, stream])


def _synth(spec: dict, seed: int):
    return synthetic.generate_synthetic_network(synthetic.SynthSpec(seed=seed, **spec))


def carve_network(seed: int, path: Path) -> Path:
    """The 417-bus ladder network, unmodified."""
    network_io.save_network(_synth(CARVE_SPEC, seed), path)
    return path


def raise_dgs(net, rng: np.random.Generator, count: int, lift: tuple[float, float], field: str) -> list[int]:
    """Raise the `field` ("p" or "q") output of `count` seeded DGs by a
    draw from `lift`, widening their surplus by as much so the raise can be
    taken back; returns the raised DG ids."""
    ids = sorted(int(i) for i in rng.choice([d.id for d in net.dgs], size=count, replace=False))
    for d in net.dgs:
        if d.id in ids:
            amount = float(rng.uniform(*lift))
            setattr(d, f"{field}_out", getattr(d, f"{field}_out") + amount)
            setattr(d, f"{field}_surplus", getattr(d, f"{field}_surplus") + amount)
    return ids


@dataclass
class StormInputs:
    network: Path
    raised: list[int]
    model: NetworkModel  # as written to `network`
    seed: int

    def round_events(self, round_no: int) -> list[list[Event]]:
        """events[t] fire at tick t of round `round_no`; every round of a
        run draws its own storm."""
        return storm_events(self.model, np.random.default_rng([self.seed, _STORM_STREAM, round_no]))


def storm_inputs(seed: int, path: Path) -> StormInputs:
    """The storm network is the same for every seed; the seed draws the
    scenario."""
    net = _synth(STORM_SPEC, STORM_NETWORK_SEED)
    for b in net.buses:
        b.p_load *= STORM_LOAD_SCALE
        b.q_load *= STORM_LOAD_SCALE
    raised = raise_dgs(net, _rng(STORM_NETWORK_SEED, _STORM_STREAM), STORM_RAISED, STORM_RAISE_Q, "q")
    network_io.save_network(net, path)
    return StormInputs(network=path, raised=raised, model=net, seed=seed)


def storm_events(net, rng: np.random.Generator) -> list[list[Event]]:
    """One round of the storm scenario.

    Every tick moves each load along a sine profile of its day (multiplier
    1 + swing*sin(2 pi t / STORM_DAY_TICKS + phase)), so the electrical
    state changes on every tick. On top of that, DGs trip and come back
    after 2-5 ticks and lose communication for 2-4 ticks. All outages end
    inside the round.
    """
    loads = [(b.id, b.p_load) for b in net.buses if b.p_load > 0]
    days = [(float(rng.uniform(*STORM_SWING)), float(rng.uniform(0, 2 * math.pi))) for _ in range(STORM_DAYS)]

    def level(t: int) -> float:
        if t < 0:
            return 1.0
        swing, phase = days[t // STORM_DAY_TICKS]
        return 1.0 + swing * math.sin(2 * math.pi * t / STORM_DAY_TICKS + phase)

    ticks: list[list[Event]] = [[] for _ in range(STORM_TICKS)]
    for t in range(STORM_TICKS):
        step = level(t) - level(t - 1)
        ticks[t].extend(Event(t, EventKind.LOAD_CHANGE, bus, p * step) for bus, p in loads)

    dg_ids = sorted(d.id for d in net.dgs)
    busy_until = {g: -1 for g in dg_ids}
    for t in range(STORM_TICKS - 5):
        for kind_out, kind_back, prob, span in (
            (EventKind.DG_TRIP, EventKind.DG_RESTORE, 0.5, (2, 6)),
            (EventKind.COMM_LOSS, EventKind.COMM_RESTORE, 0.3, (2, 5)),
        ):
            if rng.random() >= prob:
                continue
            free = [g for g in dg_ids if busy_until[g] < t]
            g = int(rng.choice(free))
            back = t + int(rng.integers(*span))
            busy_until[g] = back
            ticks[t].append(Event(t, kind_out, g))
            ticks[back].append(Event(back, kind_back, g))
    return ticks


@dataclass
class FleetMember:
    network: Path
    scenario: Path
    mode: str
    duration: int


def fleet_inputs(seed: int, root: Path) -> list[FleetMember]:
    """The fleet batch: FLEET_NETWORKS 30-bus networks, alternating vq and vp.

    Each network starts over the band: vq members get raised reactive
    output (box widened to take it back), vp members raised active output
    (same). The scenario trips one DG at tick 1 and restores it at tick 3,
    and steps one load up at tick 2.
    """
    root.mkdir(parents=True, exist_ok=True)
    members = []
    for k in range(FLEET_NETWORKS):
        net = _synth(FLEET_SPEC, seed * 1000 + k)
        rng = _rng(seed * 1000 + k, _FLEET_STREAM)
        mode = "vq" if k % 2 == 0 else "vp"
        raise_dgs(net, rng, FLEET_RAISED, FLEET_LIFT[mode], "q" if mode == "vq" else "p")
        trip = int(rng.choice([d.id for d in net.dgs]))
        load_bus = int(rng.choice([b.id for b in net.buses if b.p_load > 0]))
        events = [
            {"at_tick": 1, "kind": "dg_trip", "target": trip},
            {"at_tick": 2, "kind": "load_change", "target": load_bus, "magnitude": float(rng.uniform(0.2, 0.4))},
            {"at_tick": 3, "kind": "dg_restore", "target": trip},
        ]
        net_path = root / f"net{k:02d}.json"
        scen_path = root / f"scen{k:02d}.json"
        network_io.save_network(net, net_path)
        scen_path.write_text(json.dumps({"name": f"fleet{k:02d}", "duration": FLEET_DURATION, "events": events}))
        members.append(FleetMember(net_path, scen_path, mode, FLEET_DURATION))
    return members
