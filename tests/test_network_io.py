import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcomm.network import DG, Branch, Bus, BusKind, NetworkModel, Transformer, validate_network
from gridcomm.network_io import NetworkFormatError, NetworkValidationError, load_network, save_network
from gridcomm.simulation import load_scenario

from conftest import FIXTURES, two_bus

DOCS = Path(__file__).resolve().parent.parent / "docs"

MINIMAL = {
    "s_base_mva": 1.0,
    "buses": [
        {"id": 0, "kind": "slack", "base_kv": 12.47},
        {"id": 1, "base_kv": 12.47, "p_load": 0.0, "q_load": 0.1},
    ],
    "branches": [{"from_bus": 0, "to_bus": 1, "r": 0.0, "x": 0.1}],
}


def write(tmp_path, payload, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_minimal_file_loads(tmp_path):
    net = load_network(write(tmp_path, MINIMAL))
    assert len(net.buses) == 2
    assert net.buses[0].kind is BusKind.SLACK
    assert net.buses[1].kind is BusKind.PQ
    assert net.buses[1].q_load == 0.1
    assert net.s_base == 1.0
    assert net.transformers == [] and net.dgs == []


def test_duplicate_bus_id_rejected_and_named(tmp_path):
    payload = json.loads(json.dumps(MINIMAL))
    payload["buses"].append({"id": 5, "base_kv": 12.47})
    payload["buses"].append({"id": 5, "base_kv": 12.47})
    payload["branches"].append({"from_bus": 1, "to_bus": 5, "r": 0.01, "x": 0.02})
    with pytest.raises(NetworkValidationError) as exc:
        load_network(write(tmp_path, payload))
    assert "5" in str(exc.value)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"s_base_mva": 1.0, "s_base_mva": 2.0, "buses": [], "branches": []}', "s_base_mva"),
        ('{"s_base_mva": 1.0, "buses": [{"id": 0, "id": 1, "kind": "slack", "base_kv": 12.47}], "branches": []}', "id"),
    ],
    ids=["top level", "in a bus"],
)
def test_repeated_key_rejected_and_named(tmp_path, text, key):
    path = tmp_path / "net.json"
    path.write_text(text)
    with pytest.raises(NetworkFormatError) as exc:
        load_network(path)
    assert str(exc.value) == f"{path}: key '{key}' appears twice in one object"


@pytest.mark.parametrize(
    "doc, load", [("network-format.md", load_network), ("scenario-format.md", load_scenario)], ids=["network", "scenario"]
)
def test_the_documented_examples_load(tmp_path, doc, load):
    # Every ```json example of a format document is a file its loader reads.
    examples = re.findall(r"```json\n(.*?)```", (DOCS / doc).read_text(), re.DOTALL)
    assert examples
    for i, example in enumerate(examples):
        path = tmp_path / f"example{i}.json"
        path.write_text(example)
        load(path)


def test_net6_fixture_counts():
    net = load_network(FIXTURES / "net6.json")
    assert len(net.buses) == 6
    assert len(net.branches) == 7
    assert len(net.dgs) == 2


def test_round_trip_identity(tmp_path):
    net = two_bus(p=0.05, q=0.02, with_dg=True)
    net.buses[1].v_ang = -0.03
    net.transformers = []
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_network(net, first)
    loaded = load_network(first)
    save_network(loaded, second)
    assert first.read_text() == second.read_text()
    assert loaded == net


def test_angles_are_degrees_in_file_radians_in_memory(tmp_path):
    payload = json.loads(json.dumps(MINIMAL))
    payload["buses"][1]["v_ang"] = 90.0
    net = load_network(write(tmp_path, payload))
    assert net.buses[1].v_ang == pytest.approx(math.pi / 2, abs=1e-15)
    out = tmp_path / "back.json"
    save_network(net, out)
    raw = json.loads(out.read_text())
    assert raw["buses"][1]["v_ang"] == pytest.approx(90.0, abs=1e-12)


def test_missing_required_key_names_it(tmp_path):
    payload = json.loads(json.dumps(MINIMAL))
    del payload["branches"][0]["x"]
    with pytest.raises(NetworkFormatError) as exc:
        load_network(write(tmp_path, payload))
    assert "x" in str(exc.value)


def test_unknown_bus_kind_rejected(tmp_path):
    payload = json.loads(json.dumps(MINIMAL))
    payload["buses"][1]["kind"] = "pv"
    with pytest.raises(NetworkFormatError):
        load_network(write(tmp_path, payload))


def test_non_object_top_level_rejected(tmp_path):
    with pytest.raises(NetworkFormatError):
        load_network(write(tmp_path, [1, 2, 3]))


def test_transformer_phase_shift_degrees(tmp_path):
    payload = json.loads(json.dumps(MINIMAL))
    payload["buses"].append({"id": 2, "base_kv": 0.48})
    payload["transformers"] = [
        {"primary_bus": 1, "secondary_bus": 2, "r": 0.005, "x": 0.06, "phase_shift": 30.0}
    ]
    net = load_network(write(tmp_path, payload))
    assert net.transformers[0].phase_shift == pytest.approx(math.pi / 6, abs=1e-15)


# ---------------------------------------------------------------------------
# save/load round trip over generated valid networks

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
_NONNEGATIVE = st.floats(min_value=0.0, max_value=1e6)
# Radians whose degrees stay finite; flat zero is what every synthetic and
# fixture network holds.
_ANGLE = st.one_of(st.just(0.0), st.floats(min_value=-1e6, max_value=1e6))


@st.composite
def valid_networks(draw, angle=_ANGLE):
    ids = draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=8, unique=True))
    slack = draw(st.sampled_from(ids))
    buses = [
        Bus(
            id=b,
            kind=BusKind.SLACK if b == slack else BusKind.PQ,
            base_kv=draw(_POSITIVE),
            v_mag=draw(_POSITIVE if b == slack else _FINITE),
            v_ang=draw(angle),
            p_load=draw(_FINITE),
            q_load=draw(_FINITE),
        )
        for b in ids
    ]
    # a spanning tree of branches and transformers keeps the network connected
    branches, transformers = [], []
    for i in range(1, len(ids)):
        a, b = ids[draw(st.integers(0, i - 1))], ids[i]
        if draw(st.booleans()):
            transformers.append(
                Transformer(a, b, r=draw(_FINITE), x=draw(_POSITIVE), tap=draw(_POSITIVE), phase_shift=draw(angle))
            )
        else:
            branches.append(Branch(a, b, r=draw(_FINITE), x=draw(_POSITIVE), b_shunt=draw(_FINITE)))
    hosts = draw(st.lists(st.sampled_from(ids), unique=True).map(lambda bs: [b for b in bs if b != slack]))
    dg_ids = draw(st.lists(st.integers(0, 1000), min_size=len(hosts), max_size=len(hosts), unique=True))
    dgs = [
        DG(
            id=g,
            bus=b,
            p_out=draw(_FINITE),
            q_out=draw(_FINITE),
            p_surplus=draw(_NONNEGATIVE),
            q_surplus=draw(_NONNEGATIVE),
            online=draw(st.booleans()),
        )
        for g, b in zip(dg_ids, hosts)
    ]
    s_base = draw(_POSITIVE)
    return NetworkModel(s_base=s_base, buses=buses, branches=branches, transformers=transformers, dgs=dgs)


def _save_load(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        save_network(net, path)
        return path.read_text(), load_network(path)


@settings(max_examples=200, deadline=None)
@given(valid_networks())
def test_save_load_keeps_every_field(net):
    text, loaded = _save_load(net)
    assert validate_network(net) == []
    # the angles pass through degrees: each lands within one unit in the
    # last place, and exactly on what the conversion gives
    for before, after, name in [(b, c, "v_ang") for b, c in zip(net.buses, loaded.buses)] + [
        (t, u, "phase_shift") for t, u in zip(net.transformers, loaded.transformers)
    ]:
        x, y = getattr(before, name), getattr(after, name)
        assert y == math.radians(math.degrees(x))
        assert abs(y - x) <= math.ulp(x)
        setattr(after, name, x)
    assert loaded == net


@settings(max_examples=200, deadline=None)
@given(valid_networks(angle=st.just(0.0)))
def test_save_load_save_is_byte_identical(net):
    first, loaded = _save_load(net)
    second, again = _save_load(loaded)
    assert loaded == net
    assert again == net
    assert second == first
