"""The comparison at the heart of .github/equivalence.py, on result trees
written here, and its LP-stream lines: no worktree is checked out and no
command is run."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from gridcomm.network import validate_network
from gridcomm.network_io import load_network
from gridcomm.powerflow import solve_power_flow
from gridcomm.simplex import solve_inequality_lp
from gridcomm.simulation import load_scenario, validate_scenario

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "equivalence.py"
_spec = importlib.util.spec_from_file_location("equivalence", SCRIPT)
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


def results(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


RUN = {
    "net6-simulate-vq/controls.csv": "tick,community,objective\n1,0,0.25\n2,0,0.125\n",
    "net6-simulate-vq/stdout.txt": "violations:4 resolved:4\n",
    "bench-storm-238-seed0.json": '{\n "report": "008ea794"\n}\n',
}


def test_equal_trees_have_no_difference(tmp_path):
    a, b = results(tmp_path / "a", RUN), results(tmp_path / "b", RUN)
    assert equivalence.first_difference(a, b) is None


def test_one_changed_cell_is_reported_with_its_file_line_and_both_lines(tmp_path):
    changed = dict(RUN, **{"net6-simulate-vq/controls.csv": "tick,community,objective\n1,0,0.25\n2,0,0.1250001\n"})
    a, b = results(tmp_path / "a", RUN), results(tmp_path / "b", changed)
    assert equivalence.first_difference(a, b) == (
        "net6-simulate-vq/controls.csv, line 3:\n  a: 2,0,0.125\n  b: 2,0,0.1250001"
    )


@pytest.mark.parametrize("missing_in", ["a", "b"])
def test_a_file_missing_from_one_tree_is_reported(tmp_path, missing_in):
    short = {k: v for k, v in RUN.items() if k != "net6-simulate-vq/stdout.txt"}
    a = results(tmp_path / "a", short if missing_in == "a" else RUN)
    b = results(tmp_path / "b", short if missing_in == "b" else RUN)
    other = b if missing_in == "a" else a
    assert equivalence.first_difference(a, b) == f"net6-simulate-vq/stdout.txt: only in {other.name}"


def test_a_file_cut_short_is_reported_at_its_end(tmp_path):
    cut = dict(RUN, **{"net6-simulate-vq/controls.csv": "tick,community,objective\n1,0,0.25\n"})
    a, b = results(tmp_path / "a", RUN), results(tmp_path / "b", cut)
    assert equivalence.first_difference(a, b) == (
        "net6-simulate-vq/controls.csv, line 3:\n  a: 2,0,0.125\n  b: <end of file>"
    )


UPSTREAM_RUN = dict(
    RUN, **{"net6-simulate-vq/lp_stream.txt": "0 optimal a_ub:aa\n", "net6-simulate-vq/flows.txt": "0 v:bb\n"}
)


@pytest.mark.parametrize(
    "changed, first",
    [(["lp_stream.txt", "flows.txt", "controls.csv"], "lp_stream.txt"), (["flows.txt", "controls.csv"], "flows.txt")],
)
def test_upstream_files_are_compared_first(tmp_path, changed, first):
    # The LP stream before the flows, and both before the outputs they feed,
    # though path order alone would put controls.csv first.
    edited = dict(UPSTREAM_RUN)
    for name in changed:
        edited[f"net6-simulate-vq/{name}"] += "one more line\n"
    a, b = results(tmp_path / "a", UPSTREAM_RUN), results(tmp_path / "b", edited)
    assert equivalence.first_difference(a, b).startswith(f"net6-simulate-vq/{first}, line ")


# ---------------------------------------------------------------------------
# --tolerance

TOLERANT_RUN = dict(
    RUN,
    **{
        "net6-simulate-vq/messages.csv": 'seq,tick,kind,payload\n0,1,report,"{""bus"":4,""v"":1.0625}"\n',
        "net6-simulate-vq/flows.txt": "0 iterations:3 factorizations:1 stopped:CONVERGED v:00112233445566aa\n",
    },
)


def tolerant(tmp_path, edits: dict[str, tuple[str, str]], tolerance: float = 1e-12):
    """Compare TOLERANT_RUN with a copy where each file's first given text
    is replaced by the second; the difference found and the changes."""
    edited = dict(TOLERANT_RUN)
    for rel, (old, new) in edits.items():
        assert old in edited[rel]
        edited[rel] = edited[rel].replace(old, new)
    a, b = results(tmp_path / "a", TOLERANT_RUN), results(tmp_path / "b", edited)
    changes: dict = {}
    return equivalence.first_difference(a, b, tolerance, changes), changes


def test_floats_within_the_tolerance_pass_with_their_largest_change_per_column(tmp_path):
    difference, changes = tolerant(
        tmp_path,
        {
            "net6-simulate-vq/controls.csv": ("0.125\n", "0.1250000000000004\n"),
            "net6-simulate-vq/messages.csv": ("1.0625", "1.0625000000000009"),
        },
    )
    assert difference is None
    assert changes.keys() == {"net6-simulate-vq/controls.csv", "net6-simulate-vq/messages.csv"}
    assert changes["net6-simulate-vq/controls.csv"] == {"objective": pytest.approx(4e-16, rel=0.5)}
    assert changes["net6-simulate-vq/messages.csv"] == {"payload.v": pytest.approx(9e-16, rel=0.5)}
    report = equivalence.change_report(changes, 1e-12)
    assert "net6-simulate-vq/messages.csv  payload.v  8.88e-16" in report


def test_a_float_beyond_the_tolerance_is_a_difference(tmp_path):
    difference, _ = tolerant(tmp_path, {"net6-simulate-vq/controls.csv": ("0.125\n", "0.12500001\n")})
    assert difference == "net6-simulate-vq/controls.csv, line 3:\n  a: 2,0,0.125\n  b: 2,0,0.12500001"


@pytest.mark.parametrize(
    "rel, old, new",
    [
        ("net6-simulate-vq/controls.csv", "2,0,", "2,1,"),  # an integer cell
        ("net6-simulate-vq/messages.csv", "report", "reports"),  # a text cell
        ("net6-simulate-vq/messages.csv", '""bus"":4', '""bus"":4.0'),  # an integer that became a float
        ("net6-simulate-vq/flows.txt", "iterations:3", "iterations:4"),  # a flow's field beside its digest
    ],
)
def test_any_other_changed_token_is_a_difference_within_the_tolerance(tmp_path, rel, old, new):
    difference, _ = tolerant(tmp_path, {rel: (old, new)})
    assert difference is not None and difference.startswith(f"{rel}, line ")


def test_a_changed_digest_is_counted_not_compared(tmp_path):
    digest = {"net6-simulate-vq/flows.txt": ("v:00112233445566aa", "v:ffee2233445566aa")}
    difference, changes = tolerant(tmp_path, digest)
    assert difference is None
    assert changes == {"net6-simulate-vq/flows.txt": {"digests": 1}}
    assert "net6-simulate-vq/flows.txt  1" in equivalence.change_report(changes, 1e-12)
    # Without a tolerance the digest is a difference like any other byte.
    a, b = tmp_path / "a", tmp_path / "b"
    assert equivalence.first_difference(a, b).startswith("net6-simulate-vq/flows.txt, line 1:")


def test_lp_line_changes_when_one_coefficient_moves_one_ulp():
    # max y subject to y <= x <= 1 and x >= 0
    c = np.array([0.0, -1.0])
    a_ub = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, 0.0]])
    b_ub = np.array([1.0, 0.0, 0.0])
    moved = a_ub.copy()
    moved[1, 0] = np.nextafter(moved[1, 0], 0.0)

    def fields(a):
        return equivalence.lp_line(0, c, a, b_ub, solve_inequality_lp(c, a, b_ub)).split()

    line = fields(a_ub)
    assert line[:2] == ["0", "optimal"] and line[-1] == "-1.0"
    assert fields(a_ub.copy()) == line
    # index, status, c, a_ub, b_ub: only the a_ub digest moves among the inputs
    assert [m == f for m, f in zip(fields(moved)[:5], line)] == [True, True, True, False, True]


def test_tapped_network_has_off_nominal_taps_phase_shifts_and_several_blocks(tmp_path):
    # The one input whose transformer stamps and reverse-flow rows are not at
    # their trivial values: every tap off 1, some shifts nonzero, a flow of
    # several Jacobian blocks, and a scenario whose targets all exist.
    path = tmp_path / "tapped-network.json"
    equivalence.write_tapped(str(path))
    net = load_network(path)
    assert validate_network(net) == []
    assert all(tr.tap != 1 for tr in net.transformers)
    assert 0 < sum(tr.phase_shift != 0 for tr in net.transformers) < len(net.transformers)
    sol = solve_power_flow(net)
    assert sol.converged and len(sol.non_slack) >= 64 and len(sol.grid.blocks) >= 2
    scenario = tmp_path / "tapped.json"
    scenario.write_text(json.dumps(equivalence.SCENARIOS["tapped"]))
    validate_scenario(load_scenario(scenario), net)
