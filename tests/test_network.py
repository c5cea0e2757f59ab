import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcomm.network import (
    Branch,
    Bus,
    BusKind,
    DG,
    NetworkModel,
    Transformer,
    adjacency,
    levels,
    peripheral_levels,
    validate_network,
)
from gridcomm.synthetic import SynthSpec, generate_synthetic_network

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


# ---------------------------------------------------------------------------
# the pseudo-peripheral root of the power flow's breadth-first levels


def linked(pairs) -> dict[int, set[int]]:
    """An adjacency from undirected (a, b) pairs."""
    near: dict[int, set[int]] = {}
    for a, b in pairs:
        near.setdefault(a, set()).add(b)
        near.setdefault(b, set()).add(a)
    return near


def root_of(level: dict[int, int]) -> int:
    [root] = [b for b, k in level.items() if k == 0]
    return root


def test_a_path_rooted_at_its_middle_moves_to_its_lowest_id_end():
    # 40 - 10 - 30 - 20 - 50 from 30: the last level is both ends, each of
    # one neighbour, and the tie goes to the lower id.
    near = linked([(40, 10), (10, 30), (30, 20), (20, 50)])
    assert levels(near, 30) == {30: 0, 10: 1, 20: 1, 40: 2, 50: 2}
    assert peripheral_levels(near, 30) == {40: 0, 10: 1, 30: 2, 20: 3, 50: 4}


def test_the_least_connected_bus_of_the_last_level_is_tried_first():
    # From 0 the last level is {3, 4}: 3 has two neighbours and 4 one. The
    # levels from 4 are deeper (3 against 2), those from 3 are not.
    near = linked([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)])
    assert max(levels(near, 0).values()) == max(levels(near, 3).values()) == 2
    assert root_of(peripheral_levels(near, 0)) == 4


def test_a_lone_bus_and_an_unreached_one_stay_where_they_are():
    near = linked([(1, 2), (2, 3)])
    near[7] = set()
    assert peripheral_levels(near, 7) == {7: 0}
    assert peripheral_levels(near, 2).keys() == {1, 2, 3}


@st.composite
def synth_specs(draw):
    rows, cols = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    feeders = draw(st.integers(1, 3))
    loads = draw(st.integers(1, rows * cols))
    return SynthSpec(
        n_feeders=feeders,
        n_transformers=draw(st.integers(feeders, min(8, rows * cols))),
        grid_rows=rows,
        grid_cols=cols,
        n_loads=loads,
        n_dgs=draw(st.integers(1, min(4, loads))),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=50, deadline=None)
@given(synth_specs())
def test_peripheral_levels_reach_every_bus_in_a_band_at_least_as_deep_as_the_slacks(spec):
    # Every branch and transformer joins buses of the same or adjacent
    # levels, the property that makes the power flow's Jacobian block
    # tridiagonal, and the root is no nearer the middle than the slack.
    net = generate_synthetic_network(spec)
    near = adjacency(net)
    level = peripheral_levels(near, net.slack_bus.id)
    from_slack = levels(near, net.slack_bus.id)
    assert level.keys() == from_slack.keys() == {b.id for b in net.buses}
    ends = [(br.from_bus, br.to_bus) for br in net.branches]
    ends += [(tr.primary_bus, tr.secondary_bus) for tr in net.transformers]
    assert all(abs(level[a] - level[b]) <= 1 for a, b in ends)
    assert max(level.values()) >= max(from_slack.values())
    assert level == levels(near, root_of(level))
