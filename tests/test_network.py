import copy
import math

import pytest

from gridcomm.network import Branch, Bus, BusKind, DG, NetworkModel, Transformer, validate_network

from conftest import synth30, two_bus


def codes(net):
    return sorted(v.code for v in validate_network(net))


def test_valid_two_bus_has_no_violations():
    assert validate_network(two_bus()) == []


def test_missing_slack():
    net = two_bus()
    net.buses[0].kind = BusKind.PQ
    assert "missing-slack" in codes(net)


def test_multiple_slack():
    net = two_bus()
    net.buses[1].kind = BusKind.SLACK
    assert "multiple-slack" in codes(net)


def test_duplicate_bus_id_names_offender():
    net = two_bus()
    net.buses.append(Bus(1, BusKind.PQ, 12.47))
    violations = validate_network(net)
    dupes = [v for v in violations if v.code == "duplicate-bus-id"]
    assert dupes and "1" in dupes[0].detail


def test_dg_on_slack():
    net = two_bus()
    net.dgs.append(DG(id=7, bus=0))
    assert "dg-on-slack" in codes(net)


def test_dg_bus_shared():
    net = two_bus(with_dg=True)
    net.dgs.append(DG(id=9, bus=1))
    assert "dg-bus-shared" in codes(net)


def test_unknown_bus_reference():
    net = two_bus()
    net.branches.append(Branch(0, 99, 0.01, 0.02))
    assert "unknown-bus-ref" in codes(net)


def test_zero_impedance_branch():
    net = two_bus()
    net.branches.append(Branch(0, 1, 0.0, 0.0))
    assert "zero-impedance-branch" in codes(net)


def test_self_loop_branch():
    net = two_bus()
    net.branches.append(Branch(1, 1, 0.01, 0.02))
    assert "self-loop-branch" in codes(net)


def test_disconnected_network():
    net = two_bus()
    net.buses.append(Bus(2, BusKind.PQ, 12.47))
    assert "disconnected" in codes(net)


def test_bad_transformer_reactance():
    net = two_bus()
    net.buses.append(Bus(2, BusKind.PQ, 0.48))
    net.transformers.append(Transformer(1, 2, 0.01, 0.0))
    assert "bad-transformer-x" in codes(net)


def test_bad_transformer_tap():
    net = two_bus()
    net.buses.append(Bus(2, BusKind.PQ, 0.48))
    net.transformers.append(Transformer(1, 2, 0.01, 0.05, tap=0.0))
    assert "bad-transformer-tap" in codes(net)


def test_negative_surplus():
    net = two_bus(with_dg=True)
    net.dgs[0].q_surplus = -0.1
    assert "negative-surplus" in codes(net)


def test_non_finite_load():
    net = two_bus(q=math.nan)
    assert "non-finite-load" in codes(net)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_slack_v_mag_must_be_positive(value):
    net = two_bus()
    net.buses[0].v_mag = value
    violations = validate_network(net)
    assert [v.code for v in violations] == ["bad-slack-v-mag"]
    assert f"slack bus 0 v_mag = {value}" in violations[0].detail
    net.buses[0].v_mag = 1.0
    net.buses[1].v_mag = value  # never read off the slack
    assert validate_network(net) == []


def test_bad_s_base():
    net = two_bus()
    net.s_base = 0.0
    assert "bad-s-base" in codes(net)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_s_base(value):
    net = two_bus()
    net.s_base = value
    assert "bad-s-base" in codes(net)


def with_transformer():
    net = two_bus(with_dg=True)
    net.buses.append(Bus(2, BusKind.PQ, 0.48))
    net.transformers.append(Transformer(1, 2, 0.01, 0.05))
    return net


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "section, field",
    [("buses", f) for f in ("base_kv", "v_mag", "v_ang")]
    + [("branches", f) for f in ("r", "x", "b_shunt")]
    + [("transformers", f) for f in ("r", "x", "tap", "phase_shift")]
    + [("dgs", f) for f in ("p_out", "q_out", "p_surplus", "q_surplus")],
)
def test_non_finite_field_named_in_code(section, field, value):
    net = with_transformer()
    setattr(getattr(net, section)[-1], field, value)
    violations = [v for v in validate_network(net) if v.code.startswith("non-finite")]
    assert [v.code for v in violations] == ["non-finite-" + field.replace("_", "-")]
    assert f"{field} = " in violations[0].detail


def test_duplicate_dg_id():
    net = two_bus(with_dg=True)
    net.buses.append(Bus(2, BusKind.PQ, 12.47))
    net.branches.append(Branch(1, 2, 0.01, 0.02))
    net.dgs.append(DG(id=1, bus=2))
    assert "duplicate-dg-id" in codes(net)


def test_model_lookups():
    net = two_bus(with_dg=True)
    assert net.dg_by_id(1).bus == 1
    assert net.slack_bus.id == 0
    with pytest.raises(KeyError):
        net.dg_by_id(42)


def test_dgs_sorted_and_online_filter():
    net = NetworkModel(
        s_base=1.0,
        buses=[Bus(0, BusKind.SLACK, 1.0), Bus(1, BusKind.PQ, 1.0), Bus(2, BusKind.PQ, 1.0)],
        branches=[Branch(0, 1, 0.0, 0.1), Branch(1, 2, 0.0, 0.1)],
        dgs=[DG(id=5, bus=2), DG(id=3, bus=1, online=False)],
    )
    assert [d.id for d in net.dgs_sorted()] == [3, 5]
    assert [d.id for d in net.dgs_sorted(online_only=True)] == [5]


def test_copy_equals_the_network_and_shares_no_element():
    net = synth30()
    net.transformers[0].phase_shift = 0.1
    net.dgs[0].online = False
    twin = net.copy()
    assert twin == net == copy.deepcopy(net)
    for elements in ("buses", "branches", "transformers", "dgs"):
        mine, theirs = getattr(net, elements), getattr(twin, elements)
        assert mine is not theirs and len(mine) == len(theirs)
        assert not {id(e) for e in mine} & {id(e) for e in theirs}
    twin.buses[1].p_load += 1.0
    twin.dgs[0].online = True
    assert net.buses[1].p_load != twin.buses[1].p_load and not net.dgs[0].online
