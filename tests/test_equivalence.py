"""The comparison at the heart of .github/equivalence.py, on result trees
written here: no worktree is checked out and no command is run."""

import importlib.util
from pathlib import Path

import pytest

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
