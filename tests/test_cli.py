"""End-to-end tests for the gridcomm command line interface.

Every test drives main() in process and inspects exit code, captured
stdout/stderr and the files written under --out.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcomm import cli, simulation
from gridcomm.cli import main
from gridcomm.network_io import NetworkFormatError, NetworkValidationError, save_network
from gridcomm.powerflow import PowerFlowError, SingularJacobianError, solve_power_flow
from gridcomm.simulation import EventKind, ScenarioError, SimulationDiverged
from gridcomm.synthetic import SynthesisError

from conftest import (
    FIXTURES,
    bus_with_id,
    flat_start_point,
    record_factorizations,
    singular_kept_factors,
    trip_restore30,
    two_bus,
    v_of,
    write_scenario,
    zero_first_block_from,
)

NET6 = FIXTURES / "net6.json"
SYNTH30 = "feeders=2,transformers=4,rows=5,cols=5,loads=14,dgs=6"
SYNTH153 = "feeders=2,transformers=8,rows=12,cols=12,loads=60,dgs=20"  # conftest.synth153


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


# ---------------------------------------------------------------------------
# partition


def test_partition_writes_community_table(tmp_path, capsys):
    out = tmp_path / "part"
    code, stdout, stderr = run_cli(capsys, "partition", "--network", str(NET6), "--out", str(out))
    assert code == 0
    assert stderr == ""
    rows = read_csv(out / "community_table.csv")
    assert rows[0] == ["community", "nodes", "dgs"]
    assert rows[1:] == [["0", "0|1|4|5", "2"], ["1", "2|3", "1"]]


def test_partition_stdout_reports_count_and_modularity(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "partition", "--network", str(NET6), "--out", str(tmp_path / "p"))
    assert code == 0
    line = stdout.strip()
    assert line.startswith("communities:2 modularity:")
    value = float(line.split("modularity:")[1])
    # the CLI solves at the default power flow tolerance, so the score can
    # drift from the tight-tolerance library value in the last decimals
    assert value == pytest.approx(0.2811227075789802, abs=1e-9)


def test_partition_writes_assignment_and_dendrogram(tmp_path, capsys):
    out = tmp_path / "p"
    code, _, _ = run_cli(capsys, "partition", "--network", str(NET6), "--out", str(out))
    assert code == 0

    assignment = read_csv(out / "node_assignment.csv")
    assert assignment[0] == ["bus", "community"]
    assert [r[0] for r in assignment[1:]] == ["0", "1", "2", "3", "4", "5"]
    assert {r[1] for r in assignment[1:]} == {"0", "1"}

    dendro = read_csv(out / "dendrogram.csv")
    assert dendro[0] == ["step", "community_a", "community_b", "modularity"]
    assert dendro[1][:3] == ["0", "", ""]
    # 5 non slack buses give 4 merge steps after the initial row
    assert len(dendro) == 6
    scores = [float(r[3]) for r in dendro[1:]]
    assert max(scores) == pytest.approx(0.2811227075789802, abs=1e-12)


def test_partition_synth_spec(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "partition", "--synth", SYNTH30, "--seed", "0", "--out", str(tmp_path / "p")
    )
    assert code == 0
    assert stdout.startswith("communities:")
    assert (tmp_path / "p" / "community_table.csv").is_file()


def test_synth_seed_defaults_to_0(tmp_path, capsys):
    unset = run_cli(capsys, "partition", "--synth", SYNTH30, "--out", str(tmp_path / "unset"))
    zero = run_cli(capsys, "partition", "--synth", SYNTH30, "--seed", "0", "--out", str(tmp_path / "zero"))
    assert unset[0] == zero[0] == 0
    for name in ("community_table.csv", "node_assignment.csv", "dendrogram.csv"):
        assert (tmp_path / "unset" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()


@pytest.mark.parametrize("command", ["partition", "simulate", "sensitivity"])
def test_seed_with_network_exits_2(tmp_path, capsys, command):
    # --seed only seeds the generator; with a network file it would be ignored
    extra = []
    if command == "simulate":
        extra = ["--scenario", str(write_scenario(tmp_path / "empty.json", [], duration=1))]
    code, stdout, stderr = run_cli(
        capsys, command, "--network", str(NET6), "--seed", "5", *extra, "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")
    assert "--seed" in stderr
    assert not (tmp_path / "o").exists()


def test_negative_synth_seed_exits_2_naming_seed(tmp_path, capsys):
    code, stdout, stderr = run_cli(capsys, "partition", "--synth", "", "--seed", "-1", "--out", str(tmp_path / "o"))
    assert code == 2
    assert stdout == ""
    assert stderr == "error: seed must be nonnegative, got -1\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["partition", "simulate"])
def test_peak_option_is_gone(tmp_path, capsys, command):
    # the cut is always the first modularity maximum, the only peak greedy agglomeration has
    extra = []
    if command == "simulate":
        extra = ["--scenario", str(write_scenario(tmp_path / "empty.json", [], duration=1))]
    with pytest.raises(SystemExit) as exc:
        main([command, "--network", str(NET6), *extra, "--peak", "global", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --peak global" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("bogus=3", "bogus"),
        ("feeders=abc", "integer"),
        ("feeders", "key=value"),
        ("rows=5,rows=3", "'rows' is given twice"),
    ],
)
def test_bad_synth_spec_exits_2(tmp_path, capsys, spec, fragment):
    code, _, stderr = run_cli(capsys, "partition", "--synth", spec, "--out", str(tmp_path / "p"))
    assert code == 2
    assert stderr.startswith("error:")
    assert fragment in stderr


def test_infeasible_synth_spec_exits_2(tmp_path, capsys):
    # more DGs than load buses is rejected by the generator
    code, _, stderr = run_cli(
        capsys,
        "partition",
        "--synth",
        "feeders=2,transformers=4,rows=4,cols=4,loads=3,dgs=9",
        "--out",
        str(tmp_path / "p"),
    )
    assert code == 2
    assert stderr.startswith("error:")


def test_missing_network_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, stderr = run_cli(capsys, "partition", "--network", str(missing), "--out", str(tmp_path / "p"))
    assert code == 2
    assert stderr.startswith("error:")
    assert "nope.json" in stderr


def test_invalid_network_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    code, _, stderr = run_cli(capsys, "partition", "--network", str(bad), "--out", str(tmp_path / "p"))
    assert code == 2
    assert stderr.startswith("error:")


def test_repeated_network_key_exits_2(tmp_path, capsys):
    # json alone keeps the later value, which would partition with q_surplus 0.3
    text = NET6.read_text().replace('"q_surplus": 0.3}', '"q_surplus": 999.0, "q_surplus": 0.3}', 1)
    net_file = tmp_path / "repeated.json"
    net_file.write_text(text)
    code, _, stderr = run_cli(capsys, "partition", "--network", str(net_file), "--out", str(tmp_path / "p"))
    assert code == 2
    assert stderr == f"error: {net_file}: key 'q_surplus' appears twice in one object\n"
    assert not (tmp_path / "p").exists()


def test_repeated_scenario_key_exits_2(tmp_path, capsys):
    scenario = tmp_path / "repeated.json"
    scenario.write_text('{"events": [{"at_tick": 1, "kind": "dg_trip", "target": 1, "target": 2}], "duration": 3}')
    code, _, stderr = run_cli(
        capsys, "simulate", "--network", str(NET6), "--scenario", str(scenario), "--out", str(tmp_path / "r")
    )
    assert code == 2
    assert stderr == f"error: {scenario}: key 'target' appears twice in one object\n"


def test_network_path_is_directory_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "partition", "--network", str(tmp_path), "--out", str(tmp_path / "p"))
    assert code == 2
    assert stderr.startswith("error:")
    assert str(tmp_path) in stderr


def test_scenario_path_is_directory_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "simulate", "--network", str(NET6), "--scenario", str(tmp_path), "--out", str(tmp_path / "r")
    )
    assert code == 2
    assert stderr.startswith("error:")
    assert str(tmp_path) in stderr


def test_out_path_is_existing_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, stderr = run_cli(capsys, "partition", "--network", str(NET6), "--out", str(taken))
    assert code == 2
    assert stderr.startswith("error:")
    assert str(taken) in stderr


def _set(doc, section, index, key, value):
    if section is None:
        doc[key] = value
    else:
        doc[section][index][key] = value


@pytest.mark.parametrize(
    "section, index, key, value, fragment",
    [
        ("dgs", 0, "online", "false", "'online'"),
        (None, None, "s_base_mva", float("nan"), "s_base"),
        ("buses", 1, "id", 1.7, "'id'"),
        ("branches", 0, "to_bus", 1.7, "'to_bus'"),
        ("dgs", 1, "bus", 5.0, "'bus'"),
        (None, None, "s_base_mva", float("inf"), "bad-s-base"),
        ("dgs", 0, "p_surplus", float("nan"), "non-finite-p-surplus: DG 1 p_surplus"),
        ("dgs", 1, "q_surplus", float("nan"), "non-finite-q-surplus: DG 2 q_surplus"),
        ("dgs", 0, "q_out", float("inf"), "non-finite-q-out: DG 1 q_out"),
        ("branches", 0, "r", float("nan"), "non-finite-r: branch[0] 0-1 r"),
        ("branches", 1, "x", float("inf"), "non-finite-x: branch[1] 1-2 x"),
        ("buses", 0, "v_mag", float("nan"), "non-finite-v-mag: bus 0 v_mag"),
        ("branches", 0, "r", "0.01", "branches[0] field 'r'"),
        ("dgs", 1, "q_surplus", True, "dgs[1] field 'q_surplus'"),
        (None, None, "s_base_mva", "10", "'s_base_mva'"),
        (None, None, "s_base_mva", True, "'s_base_mva'"),
        ("buses", 2, "p_load", None, "buses[2] field 'p_load'"),
        (None, None, "transformers", None, "'transformers' must be a list"),
        (None, None, "buses", 5, "'buses' must be a list"),
        (None, None, "loads", [], "unknown top-level key(s) ['loads']"),
        ("buses", 0, "v_mag", 0.0, "bad-slack-v-mag: slack bus 0 v_mag"),
    ],
)
def test_coerced_network_field_exits_2(tmp_path, capsys, section, index, key, value, fragment):
    doc = json.loads(NET6.read_text())
    _set(doc, section, index, key, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "partition", "--network", str(bad), "--out", str(tmp_path / "p"))
    assert code == 2
    assert stderr.startswith("error:")
    assert fragment in stderr


# Values of every JSON type but a number. A bool is a wrong type for a
# number, a number for a bool, and a string outside the enum for an enum field.
_NOT_A_NUMBER = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_WRONG = {
    "number": _NOT_A_NUMBER,
    "bool": st.one_of(_NOT_A_NUMBER.filter(lambda v: type(v) is not bool), st.integers(), st.floats()),
    "kind": _NOT_A_NUMBER.filter(lambda v: v not in ("pq", "slack")),
    "event kind": _NOT_A_NUMBER.filter(lambda v: v not in [k.value for k in EventKind]),
    "list": _NOT_A_NUMBER.filter(lambda v: type(v) is not list),
}


def _net6_fields():
    doc = json.loads(NET6.read_text())
    out = [(None, None, "s_base_mva", "number")]
    out += [(None, None, key, "list") for key in ("buses", "branches", "transformers", "dgs")]
    for section in ("buses", "branches", "dgs"):
        for i, item in enumerate(doc[section]):
            for key in item:
                kind = {"kind": "kind", "online": "bool"}.get(key, "number")
                out.append((section, i, key, kind))
    return out


def _run_quiet(*argv: str):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(_net6_fields()), data=st.data())
def test_wrong_json_type_in_network_exits_2_naming_field(field, data):
    section, index, key, kind = field
    doc = json.loads(NET6.read_text())
    _set(doc, section, index, key, data.draw(_WRONG[kind], label="value"))
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stderr = _run_quiet("partition", "--network", str(bad), "--out", str(Path(tmp) / "p"))
    assert code == 2
    assert f"'{key}'" in stderr
    if section is not None:
        assert f"{section}[{index}] field '{key}'" in stderr


_SCENARIO = [
    {"at_tick": 0, "kind": "dg_trip", "target": 1},
    {"at_tick": 1, "kind": "load_change", "target": 3, "magnitude": 0.01},
]


@settings(max_examples=100, deadline=None)
@given(
    field=st.sampled_from([(i, key) for i, ev in enumerate(_SCENARIO) for key in ev]),
    data=st.data(),
)
def test_wrong_json_type_in_event_exits_2_naming_field(field, data):
    index, key = field
    events = json.loads(json.dumps(_SCENARIO))
    events[index][key] = data.draw(_WRONG["event kind" if key == "kind" else "number"], label="value")
    with tempfile.TemporaryDirectory() as tmp:
        scenario = write_scenario(Path(tmp) / "s.json", events, duration=3)
        code, stderr = _run_quiet(
            "simulate", "--network", str(NET6), "--scenario", str(scenario), "--out", str(Path(tmp) / "r")
        )
    assert code == 2
    assert f"events[{index}] field '{key}'" in stderr


# ---------------------------------------------------------------------------
# sensitivity


def test_sensitivity_two_bus_dump_is_1x1(tmp_path, capsys):
    net_file = tmp_path / "two_bus.json"
    save_network(two_bus(), net_file)
    out = tmp_path / "sens"
    code, stdout, _ = run_cli(capsys, "sensitivity", "--network", str(net_file), "--out", str(out))
    assert code == 0
    assert "1 buses" in stdout
    rows = read_csv(out / "a_vq.csv")
    assert rows[0] == ["bus", "1"]
    assert len(rows) == 2
    assert rows[1][0] == "1"
    assert float(rows[1][1]) > 0.0


def test_sensitivity_dump_matches_finite_difference(tmp_path, capsys):
    net_file = tmp_path / "two_bus.json"
    save_network(two_bus(), net_file)
    out = tmp_path / "sens"
    code, _, _ = run_cli(capsys, "sensitivity", "--network", str(net_file), "--out", str(out))
    assert code == 0
    dumped = float(read_csv(out / "a_vq.csv")[1][1])

    h = 1e-4
    base = solve_power_flow(two_bus(), tolerance=1e-12)
    bumped_net = two_bus()
    bus_with_id(bumped_net, 1).q_load -= h
    bumped = solve_power_flow(bumped_net, tolerance=1e-12)
    fd = (v_of(bumped, 1) - v_of(base, 1)) / h
    assert dumped == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize("option", [["--mode", "vp"], ["--peak", "first"]])
def test_sensitivity_rejects_partition_options(tmp_path, capsys, option):
    # the four blocks do not depend on either option, so taking one would be a silent no-op
    with pytest.raises(SystemExit) as exc:
        main(["sensitivity", "--network", str(NET6), "--out", str(tmp_path / "s"), *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


SLACK_ONLY = {"s_base_mva": 1.0, "buses": [{"id": 0, "kind": "slack"}], "branches": []}


def test_sensitivity_of_a_slack_only_network_writes_header_only_tables(tmp_path, capsys):
    net_file = tmp_path / "slack.json"
    net_file.write_text(json.dumps(SLACK_ONLY))
    out = tmp_path / "sens"
    code, stdout, stderr = run_cli(capsys, "sensitivity", "--network", str(net_file), "--out", str(out))
    assert (code, stderr) == (0, "")
    assert "0 buses" in stdout
    for name in ("a_vq.csv", "a_vp.csv", "a_theta_p.csv", "a_theta_q.csv"):
        assert (out / name).read_text() == "bus\n"


@pytest.mark.parametrize("command", ["partition", "simulate"])
@pytest.mark.parametrize(
    "network, message",
    [("slack", "network has no online DGs to partition around"), ("two_bus", "at least two non-slack buses")],
)
def test_network_too_small_to_partition_exits_2(tmp_path, capsys, command, network, message):
    net_file = tmp_path / "net.json"
    if network == "slack":
        net_file.write_text(json.dumps(SLACK_ONLY))
    else:
        save_network(two_bus(with_dg=True), net_file)
    argv = [command, "--network", str(net_file), "--out", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--scenario", str(write_scenario(tmp_path / "empty.json", [], duration=2))]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and message in stderr


def test_sensitivity_nonconvergent_network_exits_3(tmp_path, capsys):
    net_file = tmp_path / "heavy.json"
    save_network(two_bus(p=100.0, q=50.0), net_file)
    code, _, stderr = run_cli(capsys, "sensitivity", "--network", str(net_file), "--out", str(tmp_path / "s"))
    assert code == 3
    assert stderr.startswith("error:")
    assert "converge" in stderr


def test_nonconvergent_flow_says_why_it_stopped(tmp_path, capsys):
    # The initial flow and a re-solve mid-run both name the stop reason.
    net_file = tmp_path / "heavy.json"
    save_network(two_bus(p=100.0, q=50.0), net_file)
    code, _, stderr = run_cli(capsys, "partition", "--network", str(net_file), "--out", str(tmp_path / "p"))
    assert code == 3
    assert "did not converge: voltage collapse (1 steps, 0 factorizations, max mismatch" in stderr
    events = [{"at_tick": 1, "kind": "load_change", "target": 17, "magnitude": 80.0}]
    scenario = write_scenario(tmp_path / "collapse.json", events, duration=3)
    argv = ["simulate", "--synth", SYNTH30, "--scenario", str(scenario), "--out", str(tmp_path / "r")]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 3
    assert "did not converge after scenario events at tick 1: voltage collapse" in stderr


@pytest.mark.parametrize("command", ["sensitivity", "partition"])
def test_singular_jacobian_exits_3(tmp_path, capsys, monkeypatch, command):
    # The flow converges; the sensitivity solve then meets a singular Jacobian,
    # factored as one block (net6) or as three (SYNTH153).
    singular_kept_factors(monkeypatch)
    for source in (["--network", str(NET6)], ["--synth", SYNTH153]):
        code, stdout, stderr = run_cli(capsys, command, *source, "--out", str(tmp_path / "o"))
        assert code == 3
        assert stdout == ""
        assert stderr.startswith("error:")
        assert "Jacobian is singular" in stderr


def test_singular_start_exits_3_saying_why(tmp_path, capsys, monkeypatch):
    # A singular block at the flat start stops the flow like any other
    # stop, and the message says so.
    zero_first_block_from(monkeypatch, 0)  # on synth153, the network SYNTH153 makes
    code, stdout, stderr = run_cli(capsys, "partition", "--synth", SYNTH153, "--out", str(tmp_path / "p"))
    assert (code, stdout) == (3, "")
    assert stderr.startswith(
        "error: power flow did not converge: singular Jacobian block (0 steps, 0 factorizations, max mismatch"
    )


@pytest.mark.parametrize(
    "error, code",
    [
        (NetworkFormatError("bad file"), 2),
        (NetworkValidationError("bad network"), 2),
        (ScenarioError("bad scenario"), 2),
        (SynthesisError("bad synthesis"), 2),
        (ValueError("bad value"), 2),
        (IsADirectoryError("a directory"), 2),
        (PowerFlowError("no flow"), 3),
        (SingularJacobianError("singular"), 3),
        (SimulationDiverged("diverged", state=None), 3),
    ],
    ids=lambda e: type(e).__name__ if isinstance(e, Exception) else str(e),
)
def test_main_maps_each_error_by_its_base(capsys, monkeypatch, error, code):
    # Exit 2 is ValueError or OSError, exit 3 PowerFlowError: no other class.
    assert isinstance(error, (ValueError, OSError) if code == 2 else PowerFlowError)

    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_network", fail)
    assert run_cli(capsys, "partition", "--synth", SYNTH30) == (code, "", f"error: {error}\n")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_trip_restore_summary(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    save_network(trip_restore30(), net_file)
    scenario = write_scenario(
        tmp_path / "scenario.json",
        [
            {"at_tick": 1, "kind": "dg_trip", "target": 21},
            {"at_tick": 3, "kind": "dg_restore", "target": 21},
        ],
        duration=5,
    )
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--network", str(net_file), "--scenario", str(scenario), "--out", str(out)
    )
    assert code == 0
    assert "violations:1 resolved:1 unresolved:0" in stdout
    for name in ("events.csv", "controls.csv", "voltages.csv", "subsets_history.csv", "messages.csv", "summary.txt"):
        assert (out / name).is_file()
    assert (out / "summary.txt").read_text() == stdout


def test_simulate_empty_scenario(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "empty.json", [], duration=2)
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys,
        "simulate",
        "--synth",
        SYNTH30,
        "--seed",
        "0",
        "--scenario",
        str(scenario),
        "--out",
        str(out),
    )
    assert code == 0
    assert stdout.strip() == "violations:0 resolved:0 unresolved:0 actions:0 regenerations:0"


def test_simulate_solves_initial_flow_once(tmp_path, capsys, monkeypatch):
    # The simulation starts from the flow the sensitivities were taken at; with
    # no event and every bus in band nothing is solved again.
    calls = []
    for module in (cli, simulation):
        real = module.solve_power_flow
        monkeypatch.setattr(module, "solve_power_flow", lambda *a, real=real: calls.append(a) or real(*a))
    scenario = write_scenario(tmp_path / "empty.json", [], duration=2)
    code, stdout, _ = run_cli(
        capsys, "simulate", "--synth", SYNTH30, "--scenario", str(scenario), "--out", str(tmp_path / "run")
    )
    assert code == 0
    assert stdout.startswith("violations:0 ")
    assert len(calls) == 1


def test_simulate_factors_the_initial_jacobian_once(tmp_path, capsys, monkeypatch):
    # Partitioning and the simulation's DG columns read the same operating
    # point, so they share one factorization of its Jacobian. Every
    # factorization starts from GridStructure.jacobian_blocks, so its calls
    # at the solved point count them.
    points = record_factorizations(monkeypatch)
    flows = []
    real = cli.solve_power_flow
    monkeypatch.setattr(cli, "solve_power_flow", lambda *a, **k: flows.append(real(*a, **k)) or flows[-1])
    scenario = write_scenario(tmp_path / "empty.json", [], duration=2)
    code, stdout, _ = run_cli(
        capsys, "simulate", "--synth", SYNTH30, "--scenario", str(scenario), "--out", str(tmp_path / "run")
    )
    assert code == 0
    assert stdout.startswith("violations:0 ")
    assert len(flows) == 1
    assert points.count(flows[0].v_mag.tobytes() + flows[0].v_ang.tobytes()) == 1
    assert points.count(flat_start_point(flows[0].grid)) == 1


def test_simulate_reuses_the_grid_structure(tmp_path, capsys, monkeypatch):
    # Trips, restores and load steps leave the Y-bus as it is, so every
    # re-solve reuses the grid structure of the flow before it, starts
    # warm, and the run factors the flat-start Jacobian once; with the
    # reuse forced off each re-solve starts flat and factors it again.
    # Warm and cold flows agree within tolerance, not bit for bit, so the
    # two runs take the same control decisions, with adjustments that
    # differ in the last digits; a run with reuse repeats to the byte.
    events = [
        {"at_tick": 1, "kind": "dg_trip", "target": 16},
        {"at_tick": 2, "kind": "load_change", "target": 20, "magnitude": 0.6},
        {"at_tick": 3, "kind": "load_change", "target": 34, "magnitude": 0.6},
        {"at_tick": 4, "kind": "dg_restore", "target": 16},
    ]
    scenario = write_scenario(tmp_path / "storm.json", events, duration=6)
    real = simulation.solve_power_flow
    runs = {}
    for name, reuse in (("reuse", True), ("again", True), ("cold", False)):
        out = tmp_path / name
        with monkeypatch.context() as m:
            points = record_factorizations(m)
            resolves = []

            def solve(net, tolerance, previous=None):
                resolves.append(previous.grid)
                return real(net, tolerance, previous=previous if reuse else None)

            m.setattr(simulation, "solve_power_flow", solve)
            argv = ["simulate", "--synth", SYNTH153, "--scenario", str(scenario), "--out", str(out)]
            code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "actions:2" in stdout
        assert len(resolves) >= 5  # four events, and a re-solve after each control action
        flat = flat_start_point(resolves[0])
        assert points.count(flat) == (1 if reuse else 1 + len(resolves))
        runs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert runs["reuse"] == runs["again"]
    assert "voltages.csv" in runs["reuse"]
    assert runs["reuse"]["summary.txt"] == runs["cold"]["summary.txt"]

    def decisions(run):
        rows = list(csv.DictReader(io.StringIO(run["controls.csv"].decode())))
        assert rows
        return [{k: v for k, v in r.items() if k not in ("objective", "adjustments")} for r in rows]

    assert decisions(runs["reuse"]) == decisions(runs["cold"])


def test_one_process_runs_commands_as_fresh_calls(tmp_path, capsys, monkeypatch):
    """main() builds its parser once per process; partition, simulate and
    a bad-argument call through it give what fresh calls give."""
    scenario = write_scenario(tmp_path / "one.json", [{"at_tick": 1, "kind": "dg_trip", "target": 1}], duration=3)

    def commands(out: Path):
        return [
            ["partition", "--network", str(NET6), "--out", str(out / "p")],
            ["simulate", "--network", str(NET6), "--scenario", str(scenario), "--out", str(out / "s")],
            ["simulate", "--network", str(NET6), "--out", str(out / "bad")],
            ["partition", "--network", str(NET6), "--mode", "vp", "--out", str(out / "p-vp")],
        ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def files(out: Path):
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    shared = [run(argv) for argv in commands(tmp_path / "shared")]
    assert len(builds) == 1
    fresh = []
    for argv in commands(tmp_path / "fresh"):
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert len(builds) == 1 + len(fresh)

    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert "the following arguments are required: --scenario" in shared[2][2]
    assert shared == fresh
    assert files(tmp_path / "shared") == files(tmp_path / "fresh")


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test extra, not a runtime dependency: partition and simulate
    # on net6, in a fresh interpreter, must import no scipy module.
    scenario = write_scenario(tmp_path / "one.json", [{"at_tick": 1, "kind": "dg_trip", "target": 1}], duration=3)
    script = f"""
import sys
from gridcomm.cli import main
assert main(["partition", "--network", {str(NET6)!r}, "--out", {str(tmp_path / "p")!r}]) == 0
assert main(["simulate", "--network", {str(NET6)!r}, "--scenario", {str(scenario)!r}, "--out", {str(tmp_path / "s")!r}]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_each_module_imports_on_its_own_and_python_m_runs():
    # The package exports nothing but __version__, so every caller imports a
    # module first: each one, imported into an interpreter that holds no
    # gridcomm module yet, must pull in whatever it needs without a cycle.
    script = """
import importlib, pkgutil, sys
import gridcomm
names = sorted(m.name for m in pkgutil.iter_modules(gridcomm.__path__) if m.name != "__main__")
for name in ["gridcomm", *(f"gridcomm.{n}" for n in names)]:
    for loaded in [k for k in sys.modules if k.partition(".")[0] == "gridcomm"]:
        del sys.modules[loaded]
    importlib.import_module(name)
print(" ".join(names))
"""
    package = Path(cli.__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem not in ("__init__", "__main__"))
    assert done.stdout.split() == modules
    assert "cli" in modules and "simulation" in modules

    done = subprocess.run(
        [sys.executable, "-m", "gridcomm", "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: gridcomm")


def test_simulate_unknown_dg_exits_2(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path / "bad.json", [{"at_tick": 0, "kind": "dg_trip", "target": 404}], duration=2
    )
    code, _, stderr = run_cli(
        capsys, "simulate", "--network", str(NET6), "--scenario", str(scenario), "--out", str(tmp_path / "r")
    )
    assert code == 2
    assert stderr.startswith("error:")
    assert "404" in stderr


def test_simulate_load_change_on_slack_exits_2(tmp_path, capsys):
    # The slack absorbs any load step, so the event could move no voltage.
    scenario = write_scenario(
        tmp_path / "slack.json", [{"at_tick": 1, "kind": "load_change", "target": 0, "magnitude": 0.2}], duration=3
    )
    code, _, stderr = run_cli(
        capsys, "simulate", "--network", str(NET6), "--scenario", str(scenario), "--out", str(tmp_path / "r")
    )
    assert code == 2
    assert stderr.startswith("error: event load_change at tick 1 targets slack bus 0")
    assert not (tmp_path / "r").exists()


def test_simulate_rejects_a_bad_scenario_before_solving_the_flow(tmp_path, capsys):
    # The load is past voltage collapse, so a flow solved first would exit 3;
    # the scenario's unknown target is bad input, exit 2, whatever the flow.
    net_file = tmp_path / "collapse.json"
    save_network(two_bus(p=100.0, q=50.0), net_file)
    scenario = write_scenario(tmp_path / "bad.json", [{"at_tick": 0, "kind": "dg_trip", "target": 99}], duration=2)
    code, _, stderr = run_cli(
        capsys, "simulate", "--network", str(net_file), "--scenario", str(scenario), "--out", str(tmp_path / "r")
    )
    assert code == 2
    assert stderr == "error: event dg_trip targets unknown DG id 99\n"
    assert not (tmp_path / "r").exists()


def test_simulate_malformed_scenario_exits_2(tmp_path, capsys):
    scenario = tmp_path / "list.json"
    scenario.write_text("[]")
    code, _, stderr = run_cli(
        capsys, "simulate", "--network", str(NET6), "--scenario", str(scenario), "--out", str(tmp_path / "r")
    )
    assert code == 2
    assert stderr.startswith("error:")


def test_simulate_bad_voltage_band_exits_2(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "empty.json", [], duration=1)
    code, _, stderr = run_cli(
        capsys,
        "simulate",
        "--network",
        str(NET6),
        "--scenario",
        str(scenario),
        "--vmin",
        "1.05",
        "--vmax",
        "0.95",
        "--out",
        str(tmp_path / "r"),
    )
    assert code == 2
    assert "vmin" in stderr


@pytest.mark.parametrize("flag, value", [("--vmax", "inf"), ("--vmin", "-inf"), ("--vmax", "nan"), ("--vmin", "nan")])
def test_simulate_non_finite_voltage_band_exits_2(tmp_path, capsys, flag, value):
    scenario = write_scenario(tmp_path / "empty.json", [], duration=1)
    code, _, stderr = run_cli(
        capsys,
        "simulate",
        "--network",
        str(NET6),
        "--scenario",
        str(scenario),
        f"{flag}={value}",
        "--out",
        str(tmp_path / "r"),
    )
    assert code == 2
    assert f"error: {flag} must be a finite number" in stderr


def test_simulate_nonconvergent_network_exits_3(tmp_path, capsys):
    net_file = tmp_path / "heavy.json"
    save_network(two_bus(p=100.0, q=50.0), net_file)
    scenario = write_scenario(tmp_path / "empty.json", [], duration=1)
    code, _, stderr = run_cli(
        capsys, "simulate", "--network", str(net_file), "--scenario", str(scenario), "--out", str(tmp_path / "r")
    )
    assert code == 3
    assert stderr.startswith("error:")
