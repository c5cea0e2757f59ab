"""Network file loading and saving, the one typed reader of JSON documents,
and the writer of every CSV table.

``read_document`` reads both file kinds, a network here and a scenario in
``simulation``: a UTF-8 JSON object whose top-level members are each read
by their type, a list of dataclass elements or one value, never coerced.

The network format has top-level keys ``s_base_mva``, ``buses``,
``branches``, ``transformers`` and ``dgs``; field names match the in-memory
types. Angles (``v_ang``, ``phase_shift``) are degrees in the file and
radians in memory. See docs/network-format.md for the full schema.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import MISSING, fields, is_dataclass
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
    if tp is str:
        return (str,), None, "a string"
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
    (name, convert) pairs that put its fields in their file form. An angle
    is read from degrees into radians and written back in degrees."""
    hints = get_type_hints(cls)
    rules = {f.name: _rule(hints[f.name]) for f in fields(cls)}
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    to_file = [(name, attrgetter("value")) for name in rules if _is_enum(hints[name])]
    for name in _DEGREES.intersection(rules):
        types, _, expected = rules[name]
        rules[name] = types, math.radians, expected
        to_file.append((name, math.degrees))
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
    """Parse a UTF-8 JSON file in which no object names a member twice.

    Every decode failure (malformed JSON, a byte that is not UTF-8, a
    nesting too deep for the parser, an integer too long to convert) and a
    repeated member name raise ``error`` naming the file (and the key):
    ``json`` alone would keep a repeated name's last value silently.
    """

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for k in keys if keys.count(k) > 1)
            raise error(f"{path}: key {key!r} appears twice in one object")
        return obj

    try:
        return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique)
    except error:
        raise
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc


def read_document(path: Path, error: type[Exception], members: dict, required=()) -> dict:
    """The top-level members of a JSON object file, each read by its type.

    ``members`` maps every allowed key to its type, in the order they are
    read: a dataclass member is a list of its elements (``read_element``),
    any other member one value (``read_value``). A member left out of the
    file is left out of the result. Malformed JSON, a missing ``required``
    key, an unknown key and a wrongly typed member or element raise
    ``error`` naming the file and the key.
    """
    raw = load_json(path, error)
    if type(raw) is not dict:
        raise error(f"{path}: top level must be an object")
    for key in required:
        if key not in raw:
            raise error(f"{path}: missing top-level key '{key}'")
    unknown = raw.keys() - members.keys()
    if unknown:
        raise error(f"{path}: unknown top-level key(s) {sorted(unknown)}")
    doc = {key: raw[key] for key in members if key in raw}
    for key, value in doc.items():
        tp = members[key]
        if not is_dataclass(tp):
            doc[key] = read_value(tp, value, f"{path}: '{key}'", error)
        elif type(value) is not list:
            raise error(f"{path}: '{key}' must be a list, got {value!r}")
        else:
            doc[key] = [read_element(tp, item, f"{path}: {key}[{i}]", error) for i, item in enumerate(value)]
    return doc


def load_network(path: str | Path) -> NetworkModel:
    """Read, normalize and validate a network file.

    Raises NetworkFormatError on malformed input and NetworkValidationError
    (carrying the violation list) when invariants are broken.
    """
    path = Path(path)
    members = {"s_base_mva": float, **_SECTIONS}
    doc = read_document(path, NetworkFormatError, members, required=("s_base_mva", "buses", "branches"))
    net = NetworkModel(s_base=doc.pop("s_base_mva"), **doc)
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
