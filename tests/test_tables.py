"""The CSV tables read back to the records they were written from.

Comparing two runs' bytes shows that output is deterministic, not that a cell
says what it should. These tests read each table with the csv module and
compare it, cell by cell and float for float, with the in-memory records.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gridcomm.cli import main
from gridcomm.network_io import load_network
from gridcomm.partition import partition_network
from gridcomm.powerflow import solve_power_flow
from gridcomm.sensitivity import SensitivityMode, compute_sensitivity_matrix
from gridcomm.simulation import Event, EventKind, Scenario, run_scenario, write_report

from conftest import FIXTURES, prepared, trip_restore30

NET6 = FIXTURES / "net6.json"


def body(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == header
    return rows[1:]


def ids(cell: str) -> tuple[int, ...]:
    return tuple(int(x) for x in cell.split("|")) if cell else ()


def floats(cell: str) -> list[float]:
    return [float(x) for x in cell.split("|")] if cell else []


# The default band gives one feasible LP; the narrow one gives only
# infeasible LPs, whose objective and adjustments cells are empty.
@pytest.fixture(scope="module", params=[(0.95, 1.05), (0.995, 1.0)], ids=["band", "narrow"])
def trip_restore_report(request, tmp_path_factory):
    net = trip_restore30()
    part, sens = prepared(net)
    scenario = Scenario(
        events=[Event(1, EventKind.DG_TRIP, 21), Event(3, EventKind.DG_RESTORE, 21)], duration=5, name="tables"
    )
    report = run_scenario(net, scenario, part, sens, v_limits=request.param)
    out = tmp_path_factory.mktemp("report")
    write_report(report, out)
    return report, out


def test_events_read_back(trip_restore_report):
    report, out = trip_restore_report
    rows = body(out / "events.csv", ["tick", "kind", "target", "magnitude"])
    assert rows == [[str(t), ev.kind.value, str(ev.target), ""] for t, ev in report.events]


def test_voltages_read_back(trip_restore_report):
    report, out = trip_restore_report
    rows = body(out / "voltages.csv", ["tick", "bus", "v_mag"])
    assert [(int(t), int(b), float(v)) for t, b, v in rows] == report.voltage_rows


def test_controls_read_back(trip_restore_report):
    report, out = trip_restore_report
    header = ["tick", "community", "direction", "feasible", "objective", "dgs", "adjustments", "nodes"]
    rows = body(out / "controls.csv", header)
    assert report.controls and len(rows) == len(report.controls)
    for (tick, community, direction, feasible, objective, dgs, adjustments, nodes), r in zip(rows, report.controls):
        assert (int(tick), int(community), direction) == (r.tick, r.community, r.direction)
        assert feasible in {"0", "1"} and bool(int(feasible)) is r.feasible
        assert (None if objective == "" else float(objective)) == r.objective
        assert list(ids(dgs)) == r.dg_ids
        assert floats(adjustments) == r.adjustments
        assert list(ids(nodes)) == r.nodes


def test_messages_read_back(trip_restore_report):
    report, out = trip_restore_report
    rows = body(out / "messages.csv", ["seq", "tick", "sender", "receiver", "kind", "payload"])
    assert len(rows) == len(report.messages)
    for i, ((seq, tick, sender, receiver, kind, payload), m) in enumerate(zip(rows, report.messages)):
        assert (int(seq), int(tick), kind) == (i, m.tick, m.kind.value)
        assert (sender, receiver) == (str(m.sender), str(m.receiver))
        assert json.loads(payload) == m.payload


def test_subsets_history_reads_back(trip_restore_report):
    report, out = trip_restore_report
    rows = body(out / "subsets_history.csv", ["tick", "community", "generation", "anchor_dg", "dgs", "nodes"])
    read = [
        (int(t), int(c), int(g), None if a == "" else int(a), ids(dgs), ids(nodes)) for t, c, g, a, dgs, nodes in rows
    ]
    assert read == report.subset_rows


@pytest.fixture(scope="module")
def net6_partition(tmp_path_factory):
    out = tmp_path_factory.mktemp("partition")
    assert main(["partition", "--network", str(NET6), "--out", str(out)]) == 0
    assert main(["sensitivity", "--network", str(NET6), "--out", str(out)]) == 0
    net = load_network(NET6)
    sens = compute_sensitivity_matrix(net, solve_power_flow(net))
    partition, dendro = partition_network(net, sens)
    return net, sens, partition, dendro, out


def test_partition_tables_read_back(net6_partition):
    net, _, partition, dendro, out = net6_partition
    assignment = body(out / "node_assignment.csv", ["bus", "community"])
    assert {int(b): int(c) for b, c in assignment} == partition.community_of

    table = body(out / "community_table.csv", ["community", "nodes", "dgs"])
    assert [int(c) for c, _, _ in table] == list(range(partition.n_communities))
    for c, nodes, dgs in table:
        assert list(ids(nodes)) == partition.members(int(c))
        assert ids(dgs) == tuple(d.id for d in net.dgs_sorted() if partition.community_of[d.bus] == int(c))

    steps = body(out / "dendrogram.csv", ["step", "community_a", "community_b", "modularity"])
    assert steps[0][:3] == ["0", "", ""]
    assert [float(r[3]) for r in steps] == [dendro.initial_modularity] + [s.modularity_after for s in dendro.steps]
    assert [(int(r[0]), int(r[1]), int(r[2])) for r in steps[1:]] == [
        (k, s.community_a, s.community_b) for k, s in enumerate(dendro.steps, 1)
    ]


@pytest.mark.parametrize("name", ["a_vq", "a_vp", "a_theta_p", "a_theta_q"])
def test_sensitivity_blocks_read_back_bit_for_bit(net6_partition, name):
    _, sens, _, _, out = net6_partition
    rows = body(out / f"{name}.csv", ["bus"] + [str(b) for b in sens.bus_ids])
    assert [int(r[0]) for r in rows] == sens.bus_ids
    block = np.array([[float(x) for x in r[1:]] for r in rows])
    # a_vq is the voltage half of the Q columns, a_theta_p the angle half of the P columns
    n1 = len(sens.bus_ids)
    columns = sens.columns(SensitivityMode.VP if name.endswith("p") else SensitivityMode.VQ, sens.bus_ids)
    expected = columns[n1:] if name.startswith("a_v") else columns[:n1]
    assert block.tobytes() == np.ascontiguousarray(expected).tobytes()
