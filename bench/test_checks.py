"""Known-answer tests for the benchmark's own checkers.

    python3 -m pytest bench/test_checks.py
"""

import math
from types import SimpleNamespace as NS

import numpy as np
import pytest

import checks


# ---------------------------------------------------------------- mismatch


def two_bus(q_load: float, x: float):
    """Slack at 1.0 pu feeding a reactive load over a lossless line."""
    buses = [NS(id=0, p_load=0.0, q_load=0.0), NS(id=1, p_load=0.0, q_load=q_load)]
    net = NS(buses=buses, branches=[NS(from_bus=0, to_bus=1, r=0.0, x=x, b_shunt=0.0)], transformers=[], dgs=[])
    y = checks.admittance([0, 1], net.branches, net.transformers)
    return net, y, checks.scheduled_injection(net, [0, 1])


def test_mismatch_vanishes_at_two_bus_closed_form():
    # Q = (V1 - V1^2)/x with the angle at zero, so V1 = (1 + sqrt(1 - 4 x Q)) / 2.
    q, x = 0.1, 0.1
    net, y, s = two_bus(q, x)
    v1 = (1 + math.sqrt(1 - 4 * x * q)) / 2
    assert checks.max_mismatch(y, [1.0, v1], [0.0, 0.0], s, slack=0) <= 1e-14


def test_mismatch_at_flat_start_is_the_whole_load():
    net, y, s = two_bus(0.1, 0.1)
    assert checks.max_mismatch(y, [1.0, 1.0], [0.0, 0.0], s, slack=0) == pytest.approx(0.1, abs=1e-15)


def test_operating_point_check_flags_a_wrong_voltage():
    net, y, _ = two_bus(0.1, 0.1)
    v1 = (1 + math.sqrt(0.96)) / 2
    good = NS(bus_ids=[0, 1], v_mag=np.array([1.0, v1]), v_ang=np.zeros(2), slack_index=0)
    bad = NS(bus_ids=[0, 1], v_mag=np.array([1.0, v1 + 1e-4]), v_ang=np.zeros(2), slack_index=0)
    assert checks.check_operating_point(y, net, good) == []
    assert checks.check_operating_point(y, net, bad)


def test_transformer_admittance_matches_the_pi_model():
    tr = NS(primary_bus=0, secondary_bus=1, r=0.0, x=0.5, tap=2.0, phase_shift=0.0)
    y = checks.admittance([0, 1], [], [tr])
    ys = 1 / 0.5j
    assert y == pytest.approx(np.array([[ys / 4, -ys / 2], [-ys / 2, ys]]))


# ---------------------------------------------------------------- modularity


def triangles(bridge: bool) -> np.ndarray:
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] + ([(2, 3)] if bridge else []):
        w[a, b] = w[b, a] = 1.0
    return w


def test_two_triangle_split_has_modularity_one_half():
    assert checks.modularity(triangles(False), [0, 0, 0, 1, 1, 1]) == pytest.approx(0.5, abs=1e-15)


def test_bridged_triangles_and_one_block():
    # 7 edges: 2 * (3/7 - (7/14)^2) = 6/7 - 1/2.
    assert checks.modularity(triangles(True), [0, 0, 0, 1, 1, 1]) == pytest.approx(6 / 7 - 0.5, abs=1e-15)
    assert checks.modularity(triangles(True), [0] * 6) == pytest.approx(0.0, abs=1e-15)


def test_replay_blocks():
    assert checks.replay_blocks(5, [(0, 1), (2, 3)]) == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4})}
    assert checks.replay_blocks(3, [(1, 2), (0, 2)]) == {frozenset({0, 1, 2})}


def write_partition(out, assignment, merges, trace):
    (out / "node_assignment.csv").write_text(
        "bus,community\n" + "".join(f"{b},{c}\n" for b, c in sorted(assignment.items()))
    )
    rows = [f"0,,,{trace[0]!r}\n"] + [f"{i + 1},{a},{b},{q!r}\n" for i, ((a, b), q) in enumerate(zip(merges, trace[1:]))]
    (out / "dendrogram.csv").write_text("step,community_a,community_b,modularity\n" + "".join(rows))


def two_triangle_case(tmp_path, assignment):
    """Buses 1..6 are nodes 0..5; bus 0 is the slack and joins community 0."""
    w = triangles(False)
    merges = [(0, 1), (0, 2), (3, 4), (3, 5), (0, 3)]
    states = [[0, 1, 2, 3, 4, 5], [0, 0, 2, 3, 4, 5], [0, 0, 0, 3, 4, 5], [0, 0, 0, 3, 3, 5], [0, 0, 0, 3, 3, 3], [0] * 6]
    trace = [checks.modularity(w, s) for s in states]
    write_partition(tmp_path, assignment, merges, trace)
    return checks.check_partition(tmp_path, list(range(7)), 0, 2, 0.5, w)


def test_partition_check_accepts_the_peak_split(tmp_path):
    assert two_triangle_case(tmp_path, {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}) == []


def test_partition_check_rejects_blocks_off_the_peak(tmp_path):
    problems = two_triangle_case(tmp_path, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 0})
    assert any("replaying" in p for p in problems)
    assert any("recomputed" in p for p in problems)


def test_partition_check_rejects_a_missing_bus(tmp_path):
    problems = two_triangle_case(tmp_path, {0: 0, 1: 0, 2: 0, 4: 1, 5: 1, 6: 1})
    assert any("exactly once" in p for p in problems)


# ---------------------------------------------------------------- others


def test_messages_must_stay_in_one_community():
    community_of = {1: 0, 2: 0, 3: 1}
    dg_bus = {7: 2}
    assert checks.message_problems([("BA:1", "CA:0"), ("CA:0", "DA:7")], community_of, dg_bus) == []
    assert checks.message_problems([("BA:3", "CA:0")], community_of, dg_bus)


def test_lp_check_against_highs():
    c, a, b = np.array([-1.0]), np.array([[1.0]]), np.array([1.0])
    assert checks.lp_problems([(c, a, b, True, -1.0)]) == []
    assert checks.lp_problems([(c, a, b, True, -0.9)])
    infeasible = (np.array([0.0]), np.array([[1.0], [-1.0]]), np.array([1.0, -3.0]))
    assert checks.lp_problems([(*infeasible, False, None)]) == []
    assert checks.lp_problems([(*infeasible, True, 0.0)])


def test_dg_box_tolerance():
    dg = NS(id=1, p_out=0.5, q_out=0.3)
    assert checks.check_dg_boxes(NS(dgs=[dg]), {1: (0.5, 0.1, 0.0, 0.2)}) == []
    assert checks.check_dg_boxes(NS(dgs=[dg]), {1: (0.5, 0.0, 0.0, 0.2)})


def test_digest_sees_one_changed_byte(tmp_path):
    (tmp_path / "a.csv").write_text("x,1\n")
    before = checks.digest([tmp_path])
    assert checks.digest([tmp_path]) == before
    (tmp_path / "a.csv").write_text("x,2\n")
    assert checks.digest([tmp_path]) != before


def tracer_with(spans):
    import spans as spans_module

    tracer = spans_module.Tracer()
    tracer.spans = [list(s) for s in spans]
    return tracer


def test_span_nesting_and_step_accounting():
    # A 10 ms step with two children of 3 and 4 ms leaves 3 ms of self time.
    good = [("simulation.step", 0.0, 0.010, None, 1), ("a", 0.001, 0.004, 0, 1), ("b", 0.005, 0.009, 0, 1)]
    assert tracer_with(good).nesting_problems() == []
    acc = tracer_with(good).step_accounting()
    assert acc["tick_ms"] == pytest.approx(10.0) and acc["children_ms"] == pytest.approx(7.0)
    assert acc["self_ms"] == pytest.approx(3.0)
    overlapping = good[:2] + [("b", 0.003, 0.009, 0, 1)]
    assert tracer_with(overlapping).nesting_problems()
    outside = good[:2] + [("b", 0.005, 0.011, 0, 1)]
    assert tracer_with(outside).nesting_problems()
