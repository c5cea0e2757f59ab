"""Per-unit network data model and structural validation.

All electrical quantities are per-unit on the system MVA base; angles are
radians in memory (the file format carries degrees, see ``network_io``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isfinite


class BusKind(str, Enum):
    SLACK = "slack"
    PQ = "pq"


@dataclass
class Bus:
    """A network node.

    On the slack, v_mag/v_ang fix the reference voltage of every power
    flow. On other buses they are carried through load and save but never
    read: every solve starts flat. Solved voltages live in
    PowerFlowSolution, never here.
    """

    id: int
    kind: BusKind = BusKind.PQ
    base_kv: float = 1.0
    v_mag: float = 1.0
    v_ang: float = 0.0
    p_load: float = 0.0
    q_load: float = 0.0


@dataclass
class Branch:
    """A line between two buses: series r + jx, total shunt charging b_shunt."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_shunt: float = 0.0


@dataclass
class Transformer:
    """A two-winding transformer joining a primary and a secondary bus.

    tap is the off-nominal ratio on the primary side; phase_shift is the
    primary-to-secondary angle shift in radians.
    """

    primary_bus: int
    secondary_bus: int
    r: float
    x: float
    tap: float = 1.0
    phase_shift: float = 0.0


@dataclass
class DG:
    """A controllable P/Q source at a pq bus.

    p_out/q_out are the current per-unit outputs; p_surplus/q_surplus the
    adjustable headroom around the as-loaded output (symmetric box).
    """

    id: int
    bus: int
    p_out: float = 0.0
    q_out: float = 0.0
    p_surplus: float = 0.0
    q_surplus: float = 0.0
    online: bool = True


@dataclass
class NetworkModel:
    """Buses, branches, transformers and DGs in per-unit on s_base MVA."""

    s_base: float = 1.0
    buses: list[Bus] = field(default_factory=list)
    branches: list[Branch] = field(default_factory=list)
    transformers: list[Transformer] = field(default_factory=list)
    dgs: list[DG] = field(default_factory=list)

    def bus_by_id(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(f"no bus with id {bus_id}")

    def dg_by_id(self, dg_id: int) -> DG:
        for d in self.dgs:
            if d.id == dg_id:
                return d
        raise KeyError(f"no DG with id {dg_id}")

    @property
    def slack_bus(self) -> Bus:
        for b in self.buses:
            if b.kind is BusKind.SLACK:
                return b
        raise ValueError("network has no slack bus")

    def dgs_sorted(self, online_only: bool = False) -> list[DG]:
        """DGs ordered by id ascending, the canonical column order everywhere."""
        sel = [d for d in self.dgs if d.online or not online_only]
        return sorted(sel, key=lambda d: d.id)


@dataclass(frozen=True)
class Violation:
    """One broken invariant; code is stable for tests, detail names the element."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


def validate_network(net: NetworkModel) -> list[Violation]:
    """Check every structural invariant; empty list means the model is sound.

    Violations are data, not exceptions: loaders decide whether to raise.
    """
    out: list[Violation] = []
    bus_ids = [b.id for b in net.buses]
    id_set = set(bus_ids)

    if not (isfinite(net.s_base) and net.s_base > 0):
        out.append(Violation("bad-s-base", f"s_base must be finite and positive, got {net.s_base}"))

    seen: set[int] = set()
    for b in net.buses:
        if b.id in seen:
            out.append(Violation("duplicate-bus-id", f"bus id {b.id} appears more than once"))
        seen.add(b.id)
        if b.base_kv <= 0:
            out.append(Violation("bad-base-kv", f"bus {b.id} has base_kv {b.base_kv}"))
        for name, val in (("p_load", b.p_load), ("q_load", b.q_load)):
            if not isfinite(val):
                out.append(Violation("non-finite-load", f"bus {b.id} {name} = {val}"))
        if not isfinite(b.base_kv + b.v_mag + b.v_ang):
            out += _non_finite(f"bus {b.id}", b, ("base_kv", "v_mag", "v_ang"))

    slack_ids = [b.id for b in net.buses if b.kind is BusKind.SLACK]
    if not slack_ids:
        out.append(Violation("missing-slack", "network has no slack bus"))
    elif len(slack_ids) > 1:
        out.append(Violation("multiple-slack", f"slack buses {slack_ids}"))

    for i, br in enumerate(net.branches):
        label = f"branch[{i}] {br.from_bus}-{br.to_bus}"
        if not isfinite(br.r + br.x + br.b_shunt):
            out += _non_finite(label, br, ("r", "x", "b_shunt"))
        if br.from_bus == br.to_bus:
            out.append(Violation("self-loop-branch", label))
        if br.r == 0 and br.x == 0:
            out.append(Violation("zero-impedance-branch", label))
        for end in (br.from_bus, br.to_bus):
            if end not in id_set:
                out.append(Violation("unknown-bus-ref", f"{label} references missing bus {end}"))

    for i, tr in enumerate(net.transformers):
        label = f"transformer[{i}] {tr.primary_bus}-{tr.secondary_bus}"
        if not isfinite(tr.r + tr.x + tr.tap + tr.phase_shift):
            out += _non_finite(label, tr, ("r", "x", "tap", "phase_shift"))
        if tr.x <= 0:
            out.append(Violation("bad-transformer-x", f"{label} has x={tr.x}"))
        if tr.tap <= 0:
            out.append(Violation("bad-transformer-tap", f"{label} has tap={tr.tap}"))
        if tr.primary_bus == tr.secondary_bus:
            out.append(Violation("self-loop-transformer", label))
        for end in (tr.primary_bus, tr.secondary_bus):
            if end not in id_set:
                out.append(Violation("unknown-bus-ref", f"{label} references missing bus {end}"))

    dg_seen: set[int] = set()
    dg_buses: set[int] = set()
    slack_set = set(slack_ids)
    for d in net.dgs:
        if d.id in dg_seen:
            out.append(Violation("duplicate-dg-id", f"DG id {d.id} appears more than once"))
        dg_seen.add(d.id)
        if not isfinite(d.p_out + d.q_out + d.p_surplus + d.q_surplus):
            out += _non_finite(f"DG {d.id}", d, ("p_out", "q_out", "p_surplus", "q_surplus"))
        if d.bus not in id_set:
            out.append(Violation("unknown-bus-ref", f"DG {d.id} references missing bus {d.bus}"))
        elif d.bus in slack_set:
            out.append(Violation("dg-on-slack", f"DG {d.id} sits on slack bus {d.bus}"))
        if d.bus in dg_buses:
            out.append(Violation("dg-bus-shared", f"more than one DG on bus {d.bus}"))
        dg_buses.add(d.bus)
        if d.p_surplus < 0 or d.q_surplus < 0:
            out.append(Violation("negative-surplus", f"DG {d.id}"))

    if net.buses and not _connected(net):
        out.append(Violation("disconnected", "in-service graph is not connected"))

    return out


def _connected(net: NetworkModel) -> bool:
    adj: dict[int, set[int]] = {b.id: set() for b in net.buses}
    ids = set(adj)
    edges = [(br.from_bus, br.to_bus) for br in net.branches]
    edges += [(tr.primary_bus, tr.secondary_bus) for tr in net.transformers]
    for a, b in edges:
        if a in ids and b in ids and a != b:
            adj[a].add(b)
            adj[b].add(a)
    start = net.buses[0].id
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(ids)


def _non_finite(label: str, element, fields: tuple[str, ...]) -> list[Violation]:
    """One ``non-finite-<field>`` violation per NaN or infinite field.

    Callers first test the sum of the fields, which is finite whenever every
    field is, so the per-field scan runs only for a suspect element.
    """
    return [
        Violation(f"non-finite-{name.replace('_', '-')}", f"{label} {name} = {getattr(element, name)}")
        for name in fields
        if not isfinite(getattr(element, name))
    ]
