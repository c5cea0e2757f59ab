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

Each CLI command runs through a `python -c` driver (`drive`) that wraps
`gridcomm.control.solve_inequality_lp` and the `solve_power_flow` that
`gridcomm.cli` and `gridcomm.simulation` call, then runs `cli.main`. Beside
the command's outputs it writes `lp_stream.txt`, one line per LP solved
(`lp_line`), and `flows.txt`, one line per power flow solved (`flow_line`).

Every output file, every stdout and every digest is compared, the LP
streams first and the flows next, since every output is downstream of
them. The first difference found is printed (file, line, both lines) and
the exit code is 1; it is 0 when all are equal. A command that fails in
either tree also exits 1. No golden digests are committed: the bits of a
dense LAPACK solve may differ between builds and BLAS thread counts, so
both trees run here.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
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
# Compared before every other file, in this order: every output is
# downstream of the LPs and flows solved on the way to it.
UPSTREAM = ["lp_stream.txt", "flows.txt"]
DRIVER = "import sys; sys.path.insert(0, sys.argv[1]); import equivalence; sys.exit(equivalence.drive(sys.argv[2], sys.argv[3:]))"


def digest(*arrays) -> str:
    """A sha256 prefix of the arrays' shapes and float64 bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()[:16]


def lp_line(index: int, c, a_ub, b_ub, result) -> str:
    """One LP of the stream: its index, status, the digests of its inputs
    and of its solution, and its objective."""
    x = "-" if result.x is None else digest(result.x)
    return (
        f"{index} {result.status.value} c:{digest(c)} a_ub:{digest(a_ub)} b_ub:{digest(b_ub)} x:{x} "
        f"{result.objective!r}"
    )


def flow_line(index: int, pf) -> str:
    """One power flow: its index, iterations, factorizations, stop reason
    and the digest of its voltages."""
    return (
        f"{index} iterations:{pf.iterations} factorizations:{pf.factorizations} stopped:{pf.stopped.name} "
        f"v:{digest(pf.v_mag, pf.v_ang)}"
    )


def drive(out: str, argv: list[str]) -> int:
    """Run `gridcomm argv` in this process, recording every LP and flow it
    solves; write them to lp_stream.txt and flows.txt in out, and return
    the command's exit code."""
    from gridcomm import cli, control, simulation

    lps: list[str] = []
    flows: list[str] = []
    solve_lp, solve_flow = control.solve_inequality_lp, cli.solve_power_flow

    def recorded_lp(c, a_ub, b_ub):
        result = solve_lp(c, a_ub, b_ub)
        lps.append(lp_line(len(lps), c, a_ub, b_ub, result))
        return result

    def recorded_flow(*args, **kwargs):
        pf = solve_flow(*args, **kwargs)
        flows.append(flow_line(len(flows), pf))
        return pf

    control.solve_inequality_lp = recorded_lp
    cli.solve_power_flow = simulation.solve_power_flow = recorded_flow
    code = cli.main(argv)
    Path(out).mkdir(parents=True, exist_ok=True)
    (Path(out) / "lp_stream.txt").write_text("".join(line + "\n" for line in lps))
    (Path(out) / "flows.txt").write_text("".join(line + "\n" for line in flows))
    return code


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
            argv = [*command, *source, "--out", result]
            stdout = run([sys.executable, "-c", DRIVER, str(HERE), result, *argv], out, env)
            (out / result / "stdout.txt").write_text(stdout)
    for workload, seed in BENCH_RUNS:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
        run([sys.executable, "bench/run.py", *args], tree)
        record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
        digests = json.dumps(record["details"]["digests"], indent=1, sort_keys=True)
        (out / f"bench-{workload}-seed{seed}.json").write_text(digests + "\n")


def first_difference(a: Path, b: Path) -> str | None:
    """The first difference between two result trees, the UPSTREAM files
    first and then the rest in path order: a file only one tree has, or a
    file's first differing line with both lines, each labelled with its
    tree's directory name. None when every file is byte-identical."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}

    def upstream_first(rel: Path) -> tuple:
        return (UPSTREAM.index(rel.name) if rel.name in UPSTREAM else len(UPSTREAM), rel)

    for rel in sorted(files_a | files_b, key=upstream_first):
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
