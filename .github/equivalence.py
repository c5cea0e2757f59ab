#!/usr/bin/env python3
"""Check that this tree behaves exactly like a git revision.

    python3 .github/equivalence.py REV

Checks REV out with `git worktree add --detach` into a temporary directory,
runs one fixed set in both trees with one BLAS thread, and compares the
results byte for byte. The worktree is removed afterwards.

The set:
  - `partition`, `simulate --mode vq`, `simulate --mode vp` and
    `sensitivity` on tests/fixtures/net6.json, with a load-step, DG-trip and
    communication-loss scenario;
  - the same four commands on a 238-bus `--synth` network, with a scenario of
    load steps, a DG trip and a communication loss;
  - `bench/run.py --seconds 1 --trace 0` for carve-417 and storm-238 at seeds
    0 and 7 and for fleet-30 at seed 0, keeping `details.digests` of each.

Every output file, every stdout and every digest is compared. The first
difference found is printed (file, line, both lines) and the exit code is 1;
it is 0 when all are equal. A command that fails in either tree also exits 1.
No golden digests are committed: the bits of a dense LAPACK solve may
differ between builds and BLAS thread counts, so both trees run here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

SYNTH = "feeders=2,transformers=12,rows=15,cols=15,loads=120,dgs=40"
SCENARIOS = {
    "net6": {
        "name": "step-trip-comm",
        "duration": 7,
        "events": [
            {"at_tick": 1, "kind": "load_change", "target": 4, "magnitude": 0.5},
            {"at_tick": 2, "kind": "comm_loss", "target": 1},
            {"at_tick": 3, "kind": "load_change", "target": 3, "magnitude": 0.3},
            {"at_tick": 4, "kind": "dg_trip", "target": 2},
            {"at_tick": 5, "kind": "dg_restore", "target": 2},
            {"at_tick": 5, "kind": "comm_restore", "target": 1},
        ],
    },
    "synth238": {
        "name": "load-trip-comm",
        "duration": 10,
        "events": [
            {"at_tick": 1, "kind": "load_change", "target": 13, "magnitude": 0.3},
            {"at_tick": 1, "kind": "load_change", "target": 43, "magnitude": 0.3},
            {"at_tick": 2, "kind": "dg_trip", "target": 15},
            {"at_tick": 3, "kind": "comm_loss", "target": 29},
            {"at_tick": 3, "kind": "load_change", "target": 73, "magnitude": 0.4},
            {"at_tick": 4, "kind": "load_change", "target": 207, "magnitude": 0.4},
            {"at_tick": 5, "kind": "load_change", "target": 13, "magnitude": -0.6},
            {"at_tick": 6, "kind": "dg_restore", "target": 15},
            {"at_tick": 7, "kind": "comm_restore", "target": 29},
            {"at_tick": 7, "kind": "load_change", "target": 222, "magnitude": 0.5},
        ],
    },
}
BENCH_RUNS = [("carve-417", 0), ("carve-417", 7), ("storm-238", 0), ("storm-238", 7), ("fleet-30", 0)]


class CommandFailed(RuntimeError):
    pass


def run(args: list[str], cwd: Path, env: dict | None = None) -> str:
    """Run a command, returning its stdout; CommandFailed on a non-zero exit."""
    done = subprocess.run(args, cwd=cwd, env=env or ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise CommandFailed(f"{' '.join(args)} (in {cwd}) exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return done.stdout


def collect(tree: Path, scenarios: Path, out: Path) -> None:
    """Run the fixed set in tree, writing every result under out: one
    directory per CLI command with its output files and its stdout, and one
    digest file per bench run. Output paths are relative to out, so no
    stdout names the tree it came from."""
    out.mkdir(parents=True)
    env = dict(ENV, PYTHONPATH=str(tree / "src"))
    sources = {
        "net6": ["--network", str(tree / "tests" / "fixtures" / "net6.json")],
        "synth238": ["--synth", SYNTH],
    }
    for name, source in sources.items():
        scenario = ["--scenario", str(scenarios / f"{name}.json")]
        commands = {
            "partition": ["partition"],
            "simulate-vq": ["simulate", "--mode", "vq", *scenario],
            "simulate-vp": ["simulate", "--mode", "vp", *scenario],
            "sensitivity": ["sensitivity"],
        }
        for label, command in commands.items():
            result = f"{name}-{label}"
            stdout = run([sys.executable, "-m", "gridcomm", *command, *source, "--out", result], out, env)
            (out / result / "stdout.txt").write_text(stdout)
    for workload, seed in BENCH_RUNS:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
        run([sys.executable, "bench/run.py", *args], tree)
        record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
        digests = json.dumps(record["details"]["digests"], indent=1, sort_keys=True)
        (out / f"bench-{workload}-seed{seed}.json").write_text(digests + "\n")


def first_difference(a: Path, b: Path) -> str | None:
    """The first difference between two result trees, in file order: a file
    only one tree has, or a file's first differing line with both lines, each
    labelled with its tree's directory name. None when every file is
    byte-identical."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            return f"{rel}: only in {a.name}"
        if rel not in files_a:
            return f"{rel}: only in {b.name}"
        bytes_a, bytes_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if bytes_a == bytes_b:
            continue
        lines_a, lines_b = bytes_a.splitlines(), bytes_b.splitlines()
        for i in range(max(len(lines_a), len(lines_b))):
            line_a = lines_a[i] if i < len(lines_a) else b"<end of file>"
            line_b = lines_b[i] if i < len(lines_b) else b"<end of file>"
            if line_a != line_b:
                text_a, text_b = line_a.decode(errors="replace"), line_b.decode(errors="replace")
                return f"{rel}, line {i + 1}:\n  {a.name}: {text_a}\n  {b.name}: {text_b}"
        return f"{rel}: line endings differ"
    return None


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        tmp = Path(tmp)
        scenarios = tmp / "scenarios"
        scenarios.mkdir()
        for name, doc in SCENARIOS.items():
            (scenarios / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        checkout = tmp / "checkout"
        try:
            run(["git", "worktree", "add", "--detach", str(checkout), rev], ROOT)
            try:
                collect(checkout, scenarios, tmp / "rev")
                collect(ROOT, scenarios, tmp / "tree")
            finally:
                run(["git", "worktree", "remove", "--force", str(checkout)], ROOT)
        except CommandFailed as exc:
            print(f"error: {exc}")
            return 1
        difference = first_difference(tmp / "rev", tmp / "tree")
        if difference is not None:
            print(f"{rev} (rev) and this tree (tree) differ at {difference}")
            return 1
        results = sorted(p.name for p in (tmp / "tree").iterdir())
        files = sum(p.is_file() for p in (tmp / "tree").rglob("*"))
        print(f"{rev} and this tree are equal on {files} files of {len(results)} results: {', '.join(results)}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
