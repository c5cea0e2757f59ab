"""Network file loading and saving.

The on-disk format is JSON with top-level keys ``s_base_mva``, ``buses``,
``branches``, ``transformers`` and ``dgs``; field names match the in-memory
types. Angles (``v_ang``, ``phase_shift``) are degrees in the file and
radians in memory. See docs/network-format.md for the full schema.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .network import DG, Branch, Bus, BusKind, NetworkModel, Transformer, validate_network


class NetworkFormatError(ValueError):
    """The file is not a well-formed network document."""


class NetworkValidationError(ValueError):
    """The file parsed but the model breaks structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


_BUS_FIELDS = {"id", "kind", "base_kv", "v_mag", "v_ang", "p_load", "q_load"}
_BRANCH_FIELDS = {"from_bus", "to_bus", "r", "x", "b_shunt"}
_XFMR_FIELDS = {"primary_bus", "secondary_bus", "r", "x", "tap", "phase_shift"}
_DG_FIELDS = {"id", "bus", "p_out", "q_out", "p_surplus", "q_surplus", "online"}


def load_network(path: str | Path) -> NetworkModel:
    """Read, normalize and validate a network file.

    Raises NetworkFormatError on malformed input and NetworkValidationError
    (carrying the violation list) when invariants are broken.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"{path}: not valid JSON ({exc})") from exc

    if not isinstance(raw, dict):
        raise NetworkFormatError(f"{path}: top level must be an object")
    for key in ("s_base_mva", "buses", "branches"):
        if key not in raw:
            raise NetworkFormatError(f"{path}: missing top-level key '{key}'")

    net = NetworkModel(s_base=_num(raw, "s_base_mva", path))
    for i, item in enumerate(raw.get("buses", [])):
        where = f"buses[{i}]"
        _check_fields(item, _BUS_FIELDS, {"id"}, where, path)
        kind = item.get("kind", "pq")
        if kind not in ("slack", "pq"):
            raise NetworkFormatError(f"{path}: {where} has unknown kind '{kind}'")
        net.buses.append(
            Bus(
                id=_int(item, "id", where, path),
                kind=BusKind(kind),
                base_kv=float(item.get("base_kv", 1.0)),
                v_mag=float(item.get("v_mag", 1.0)),
                v_ang=math.radians(float(item.get("v_ang", 0.0))),
                p_load=float(item.get("p_load", 0.0)),
                q_load=float(item.get("q_load", 0.0)),
            )
        )
    for i, item in enumerate(raw.get("branches", [])):
        where = f"branches[{i}]"
        _check_fields(item, _BRANCH_FIELDS, {"from_bus", "to_bus", "r", "x"}, where, path)
        net.branches.append(
            Branch(
                from_bus=_int(item, "from_bus", where, path),
                to_bus=_int(item, "to_bus", where, path),
                r=float(item["r"]),
                x=float(item["x"]),
                b_shunt=float(item.get("b_shunt", 0.0)),
            )
        )
    for i, item in enumerate(raw.get("transformers", [])):
        where = f"transformers[{i}]"
        _check_fields(item, _XFMR_FIELDS, {"primary_bus", "secondary_bus", "r", "x"}, where, path)
        net.transformers.append(
            Transformer(
                primary_bus=_int(item, "primary_bus", where, path),
                secondary_bus=_int(item, "secondary_bus", where, path),
                r=float(item["r"]),
                x=float(item["x"]),
                tap=float(item.get("tap", 1.0)),
                phase_shift=math.radians(float(item.get("phase_shift", 0.0))),
            )
        )
    for i, item in enumerate(raw.get("dgs", [])):
        where = f"dgs[{i}]"
        _check_fields(item, _DG_FIELDS, {"id", "bus"}, where, path)
        online = item.get("online", True)
        if not isinstance(online, bool):
            raise NetworkFormatError(f"{path}: {where} field 'online' must be true or false, got {online!r}")
        net.dgs.append(
            DG(
                id=_int(item, "id", where, path),
                bus=_int(item, "bus", where, path),
                p_out=float(item.get("p_out", 0.0)),
                q_out=float(item.get("q_out", 0.0)),
                p_surplus=float(item.get("p_surplus", 0.0)),
                q_surplus=float(item.get("q_surplus", 0.0)),
                online=online,
            )
        )

    violations = validate_network(net)
    if violations:
        raise NetworkValidationError(violations)
    return net


def save_network(net: NetworkModel, path: str | Path) -> None:
    """Write the model back out; load_network(save_network(net)) is identity."""
    doc = {
        "s_base_mva": net.s_base,
        "buses": [
            {
                "id": b.id,
                "kind": b.kind.value,
                "base_kv": b.base_kv,
                "v_mag": b.v_mag,
                "v_ang": math.degrees(b.v_ang),
                "p_load": b.p_load,
                "q_load": b.q_load,
            }
            for b in net.buses
        ],
        "branches": [
            {"from_bus": br.from_bus, "to_bus": br.to_bus, "r": br.r, "x": br.x, "b_shunt": br.b_shunt}
            for br in net.branches
        ],
        "transformers": [
            {
                "primary_bus": t.primary_bus,
                "secondary_bus": t.secondary_bus,
                "r": t.r,
                "x": t.x,
                "tap": t.tap,
                "phase_shift": math.degrees(t.phase_shift),
            }
            for t in net.transformers
        ],
        "dgs": [
            {
                "id": d.id,
                "bus": d.bus,
                "p_out": d.p_out,
                "q_out": d.q_out,
                "p_surplus": d.p_surplus,
                "q_surplus": d.q_surplus,
                "online": d.online,
            }
            for d in net.dgs
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _num(raw: dict, key: str, path: Path) -> float:
    try:
        return float(raw[key])
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{path}: '{key}' must be a number") from exc


def _int(item: dict, key: str, where: str, path: Path) -> int:
    value = item[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise NetworkFormatError(f"{path}: {where} field '{key}' must be an integer, got {value!r}")
    return value


def _check_fields(item, allowed: set[str], required: set[str], where: str, path: Path) -> None:
    if not isinstance(item, dict):
        raise NetworkFormatError(f"{path}: {where} must be an object")
    missing = required - item.keys()
    if missing:
        raise NetworkFormatError(f"{path}: {where} missing field(s) {sorted(missing)}")
    unknown = item.keys() - allowed
    if unknown:
        raise NetworkFormatError(f"{path}: {where} has unknown field(s) {sorted(unknown)}")
