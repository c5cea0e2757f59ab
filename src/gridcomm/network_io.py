"""Network file loading and saving, the typed reader of file elements, and
the writer of every CSV table.

The on-disk format is JSON with top-level keys ``s_base_mva``, ``buses``,
``branches``, ``transformers`` and ``dgs``; field names match the in-memory
types. Angles (``v_ang``, ``phase_shift``) are degrees in the file and
radians in memory. See docs/network-format.md for the full schema.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import MISSING, fields
from enum import Enum
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from .network import DG, Branch, Bus, NetworkModel, Transformer, validate_network


class NetworkFormatError(ValueError):
    """The file is not a well-formed network document."""


class NetworkValidationError(ValueError):
    """The file parsed but the model breaks structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


# Section key -> element type; each key is also the NetworkModel list it fills.
_SECTIONS = {"buses": Bus, "branches": Branch, "transformers": Transformer, "dgs": DG}
_DEGREES = frozenset({"v_ang", "phase_shift"})


def _rule(tp) -> tuple:
    """(JSON types, convert, expected) for one annotated field type.

    A value is taken only if its exact type is listed: a bool or a string is
    no number. ``convert`` (None keeps the value) makes an int a float and a
    string an enum member; it raises ValueError for a string outside the
    enum and OverflowError for an integer beyond the float range.
    """
    if tp is float:
        return (int, float), float, "a number"
    if tp is int:
        return (int,), None, "an integer"
    if tp is bool:
        return (bool,), None, "true or false"
    if tp == float | None:
        return (int, float, type(None)), _optional_float, "a number or null"
    if _is_enum(tp):
        return (str,), tp, "one of " + ", ".join(repr(m.value) for m in tp)
    raise TypeError(f"no JSON rule for field type {tp!r}")


def _optional_float(value):
    return None if value is None else float(value)


def _is_enum(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, Enum)


@cache
def _rules(cls) -> tuple[dict, frozenset, tuple]:
    """A dataclass's read rule per field, its required field names and the
    (name, convert) pairs that put its fields in their file form."""
    hints = get_type_hints(cls)
    rules = {f.name: _rule(hints[f.name]) for f in fields(cls)}
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    to_file = [(name, math.degrees) for name in rules if name in _DEGREES]
    to_file += [(name, attrgetter("value")) for name in rules if _is_enum(hints[name])]
    return rules, required, tuple(to_file)


def read_value(tp, value, where: str, error: type[Exception]):
    """One JSON value read as a field of type ``tp``; ``error`` names ``where``."""
    types, convert, expected = _rule(tp)
    try:
        if type(value) not in types:
            raise ValueError
        return value if convert is None else convert(value)
    except (ValueError, OverflowError):
        raise error(f"{where} must be {expected}, got {value!r}") from None


def read_element(cls, item, where: str, error: type[Exception]):
    """Build a ``cls`` dataclass from one JSON object, typed by its fields.

    Field names, required-ness and defaults come from the dataclass, JSON
    types from its annotations (see ``_rule``). An unknown, missing or
    wrongly typed field raises ``error`` naming ``where`` and the field.
    """
    if type(item) is not dict:
        raise error(f"{where} must be an object, got {item!r}")
    rules, required, _ = _rules(cls)
    if not required <= item.keys():
        raise error(f"{where} missing field(s) {sorted(required - item.keys())}")
    if not item.keys() <= rules.keys():
        raise error(f"{where} has unknown field(s) {sorted(item.keys() - rules.keys())}")
    kwargs = {}
    try:
        for name, value in item.items():
            types, convert, _ = rules[name]
            if type(value) not in types:
                raise ValueError
            kwargs[name] = value if convert is None else convert(value)
    except (ValueError, OverflowError):
        raise error(f"{where} field '{name}' must be {rules[name][2]}, got {value!r}") from None
    return cls(**kwargs)


def load_json(path: Path, error: type[Exception]):
    """Parse a JSON file in which no object names a member twice.

    Malformed JSON and a repeated member name raise ``error`` naming the
    file (and the key): ``json`` alone would keep the last value silently.
    """

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for k in keys if keys.count(k) > 1)
            raise error(f"{path}: key {key!r} appears twice in one object")
        return obj

    try:
        return json.loads(path.read_text(), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc


def load_network(path: str | Path) -> NetworkModel:
    """Read, normalize and validate a network file.

    Raises NetworkFormatError on malformed input and NetworkValidationError
    (carrying the violation list) when invariants are broken.
    """
    path = Path(path)
    raw = load_json(path, NetworkFormatError)
    if type(raw) is not dict:
        raise NetworkFormatError(f"{path}: top level must be an object")
    for key in ("s_base_mva", "buses", "branches"):
        if key not in raw:
            raise NetworkFormatError(f"{path}: missing top-level key '{key}'")
    unknown = raw.keys() - _SECTIONS.keys() - {"s_base_mva"}
    if unknown:
        raise NetworkFormatError(f"{path}: unknown top-level key(s) {sorted(unknown)}")

    net = NetworkModel(s_base=read_value(float, raw["s_base_mva"], f"{path}: 's_base_mva'", NetworkFormatError))
    for key, cls in _SECTIONS.items():
        items = raw.get(key, [])
        if type(items) is not list:
            raise NetworkFormatError(f"{path}: '{key}' must be a list, got {items!r}")
        section = getattr(net, key)
        angles = _DEGREES.intersection(_rules(cls)[0])
        for i, item in enumerate(items):
            element = read_element(cls, item, f"{path}: {key}[{i}]", NetworkFormatError)
            for name in angles:
                setattr(element, name, math.radians(getattr(element, name)))
            section.append(element)

    violations = validate_network(net)
    if violations:
        raise NetworkValidationError(violations)
    return net


def save_network(net: NetworkModel, path: str | Path) -> None:
    """Write the model in the file format ``load_network`` reads.

    Every field but the two angles survives a save and a load exactly. An
    angle can move by one unit in the last place: not every float in
    radians has a float in degrees that converts back to it.
    """
    doc = {"s_base_mva": net.s_base}
    for key, cls in _SECTIONS.items():
        rules, _, to_file = _rules(cls)
        rows = [{name: getattr(element, name) for name in rules} for element in getattr(net, key)]
        for row in rows:
            for name, convert in to_file:
                row[name] = convert(row[name])
        doc[key] = rows
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def joined(values: Iterable) -> str:
    """A list cell: the values' text joined by ``|``, empty for no values."""
    return "|".join(map(str, values))


def write_table(path: str | Path, header: list, rows: Iterable) -> None:
    """Write a CSV table: the header, then ``rows`` streamed in order.

    This is the one cell format of every table gridcomm writes. Cells go to
    ``csv`` as they are: an int or str as its text, a Python float as its
    ``repr`` (so it reads back exactly), ``None`` as an empty cell. Callers
    convert the rest: a bool to ``int``, an enum to its ``.value``, a list
    through ``joined`` and a payload to compact JSON with sorted keys.
    Lines end in a bare newline.
    """
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
