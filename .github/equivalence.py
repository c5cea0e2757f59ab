#!/usr/bin/env python3
"""Check that this tree behaves exactly like a git revision, or within a
float tolerance.

    python3 .github/equivalence.py REV [--tolerance TOL]

Checks REV out with `git worktree add --detach` into a temporary directory,
runs one fixed set in both trees with one BLAS thread, and compares the
results byte for byte, or with --tolerance within TOL. The worktree is
removed afterwards.

The set:
  - `partition`, `simulate --mode vq`, `simulate --mode vp` and
    `sensitivity` on tests/fixtures/net6.json, with a load-step, DG-trip and
    communication-loss scenario;
  - the same four commands on a 238-bus `--synth` network, with a scenario of
    load steps, a DG trip and a communication loss;
  - the same four commands on the tapped network, with a scenario like the
    238-bus one: a generated network of 89 non-slack buses (so the Jacobian
    has several blocks) whose transformers have taps off 1 and some a phase
    shift, which no other input has. `write_tapped` writes it once per run
    with this tree's gridcomm, and both trees read that file;
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

With --tolerance, for a numerical change that moves floats at rounding
level, lines are compared token by token (``line_difference``): a float
(a number with a point or an exponent) matches one within TOL of it, in
CSV cells, in the JSON payloads inside them and in stdout alike; every
other token must be equal. In the LP streams, the flows and the bench
digest files (``digested``) a digest that changed is counted, not
compared, while every other field there must still match. The script
prints the largest change of each file and column, then the changed
digests (``change_report``), and exits 0 only when nothing else differs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
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
    "tapped": {
        "name": "tapped-load-trip-comm",
        "duration": 10,
        "events": [
            {"at_tick": 1, "kind": "load_change", "target": 81, "magnitude": 0.5},
            {"at_tick": 1, "kind": "load_change", "target": 63, "magnitude": 0.3},
            {"at_tick": 2, "kind": "dg_trip", "target": 10},
            {"at_tick": 3, "kind": "comm_loss", "target": 89},
            {"at_tick": 3, "kind": "load_change", "target": 73, "magnitude": 0.4},
            {"at_tick": 4, "kind": "load_change", "target": 40, "magnitude": 0.6},
            {"at_tick": 5, "kind": "load_change", "target": 81, "magnitude": -0.3},
            {"at_tick": 6, "kind": "dg_restore", "target": 10},
            {"at_tick": 7, "kind": "comm_restore", "target": 89},
            {"at_tick": 7, "kind": "load_change", "target": 20, "magnitude": 0.6},
        ],
    },
}
BENCH_RUNS = [("carve-417", 0), ("carve-417", 7), ("storm-238", 0), ("storm-238", 7), ("fleet-30", 0)]
# Compared before every other file, in this order: every output is
# downstream of the LPs and flows solved on the way to it.
UPSTREAM = ["lp_stream.txt", "flows.txt"]
# A float or integer standing alone (not part of a name, hex digest or
# longer number), and a hex digest of 16 or more digits.
NUMBER = r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])"
TOKEN = re.compile(rf"(?P<digest>(?<![\w.])[0-9a-f]{{16,}}(?![\w.]))|(?P<number>{NUMBER})")
KEY = re.compile(r"([A-Za-z_]\w*)\"?\s*[:=]\s*$")  # the name a number is given, as in `modularity:` or `"v":`
DRIVER = "import sys; sys.path.insert(0, sys.argv[1]); import equivalence; sys.exit(equivalence.drive(sys.argv[2], sys.argv[3:]))"
WRITER = "import sys; sys.path.insert(0, sys.argv[1]); import equivalence; equivalence.write_tapped(sys.argv[2])"
# The tapped network: the generator's network of this spec, its k-th
# transformer given TAPS[k % 6] and a phase shift of SHIFTS[k % 4] degrees.
TAPPED = dict(n_feeders=2, n_transformers=8, grid_rows=9, grid_cols=9, n_loads=40, n_dgs=20, seed=0)
TAPS = (0.975, 1.025, 0.95, 1.0375, 0.9625, 1.05)
SHIFTS = (0.0, 2.0, 0.0, -3.0)


def write_tapped(path: str) -> None:
    """Write the tapped network to path as a network file, generated by the
    gridcomm on sys.path."""
    from gridcomm.network_io import save_network
    from gridcomm.synthetic import SynthSpec, generate_synthetic_network

    net = generate_synthetic_network(SynthSpec(**TAPPED))
    for k, tr in enumerate(net.transformers):
        tr.tap, tr.phase_shift = TAPS[k % len(TAPS)], np.radians(SHIFTS[k % len(SHIFTS)])
    save_network(net, path)


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


def collect(tree: Path, inputs: Path, out: Path) -> None:
    """Run the fixed set in tree, writing every result under out: one
    directory per CLI command with its output files and its stdout, and one
    digest file per bench run. Output paths are relative to out, so no
    stdout names the tree it came from."""
    out.mkdir(parents=True)
    env = dict(ENV, PYTHONPATH=str(tree / "src"))
    sources = {
        "net6": ["--network", str(tree / "tests" / "fixtures" / "net6.json")],
        "synth238": ["--synth", SYNTH],
        "tapped": ["--network", str(inputs / "tapped-network.json")],
    }
    for name, source in sources.items():
        scenario = ["--scenario", str(inputs / f"{name}.json")]
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


def digested(rel: Path) -> bool:
    """Whether a result file holds digests, which --tolerance counts
    instead of comparing: the LP streams, the flows and the bench digests."""
    return rel.name in UPSTREAM or rel.name.startswith("bench-")


def tokens(text: str) -> list[tuple[str, str]]:
    """text as (kind, token) pairs: "digest", "float", "integer" and, for
    everything between them, "text"."""
    out, end = [], 0
    for m in TOKEN.finditer(text):
        out.append(("text", text[end : m.start()]))
        token = m.group()
        kind = "digest" if m.group("digest") else "float" if re.search(r"[.eE]", token) else "integer"
        out.append((kind, token))
        end = m.end()
    out.append(("text", text[end:]))
    return out


def line_difference(
    line_a: str, line_b: str, csv_header: list[str] | None, tolerance: float, digests: bool, changes: dict
) -> bool:
    """Whether two lines differ beyond tolerance. A CSV line (csv_header
    given) is compared cell by cell. Each float change is recorded in
    changes under its column (header, then any JSON key within the cell,
    or the name before the float on a line that is not CSV) as the largest
    |a - b| seen. A changed digest is counted under "digests" where digests
    is set, and is a difference elsewhere."""
    if csv_header is None:
        cells_a, cells_b, names = [line_a], [line_b], [None]
    else:
        cells_a, cells_b = next(csv.reader([line_a])), next(csv.reader([line_b]))
        names = csv_header + [f"#{i}" for i in range(len(csv_header), len(cells_a))]
    if len(cells_a) != len(cells_b):
        return True
    for cell_a, cell_b, name in zip(cells_a, cells_b, names):
        pieces_a, pieces_b = tokens(cell_a), tokens(cell_b)
        if [kind for kind, _ in pieces_a] != [kind for kind, _ in pieces_b]:
            return True
        before = ""
        for (kind, a), (_, b) in zip(pieces_a, pieces_b):
            if kind == "float" and a != b:
                change = abs(float(a) - float(b))
                if not change <= tolerance:
                    return True
                key = KEY.search(before)
                column = ".".join(filter(None, (name, key and key.group(1)))) or "-"
                changes[column] = max(changes.get(column, 0.0), change)
            elif kind == "digest" and a != b and digests:
                changes["digests"] = changes.get("digests", 0) + 1
            elif a != b:
                return True
            before = a
    return False


def first_difference(a: Path, b: Path, tolerance: float | None = None, changes: dict | None = None) -> str | None:
    """The first difference between two result trees, the UPSTREAM files
    first and then the rest in path order: a file only one tree has, or a
    file's first differing line with both lines, each labelled with its
    tree's directory name. None when every file is byte-identical, or with
    a tolerance when every line matches within it; then changes maps each
    file with a float or digest change to ``line_difference``'s record."""
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
        header = next(csv.reader([lines_a[0].decode()])) if rel.suffix == ".csv" and lines_a else None
        found: dict = {}
        for i in range(max(len(lines_a), len(lines_b))):
            line_a = lines_a[i] if i < len(lines_a) else b"<end of file>"
            line_b = lines_b[i] if i < len(lines_b) else b"<end of file>"
            if line_a == line_b:
                continue
            text_a, text_b = line_a.decode(errors="replace"), line_b.decode(errors="replace")
            within = (
                tolerance is not None
                and i < min(len(lines_a), len(lines_b))
                and not line_difference(text_a, text_b, header if i else None, tolerance, digested(rel), found)
            )
            if not within:
                return f"{rel}, line {i + 1}:\n  {a.name}: {text_a}\n  {b.name}: {text_b}"
        if not found:
            return f"{rel}: line endings differ"
        if changes is not None:
            changes[str(rel)] = found
    return None


REPORTED_COLUMNS = 4  # per file; the rest (a sensitivity table has one per bus) share a line


def change_report(changes: dict, tolerance: float) -> str:
    """The largest float change of each file and column, then the changed
    digests of each file, as lines. A file's columns are listed largest
    change first; past REPORTED_COLUMNS, one line gives how many more there
    are and the largest change among them."""
    lines = [f"largest change per file and column (tolerance {tolerance:g}):"]
    for rel, found in sorted(changes.items()):
        columns = sorted(((c, x) for c, x in found.items() if c != "digests"), key=lambda item: -item[1])
        lines += [f"  {rel}  {column}  {change:.3g}" for column, change in columns[:REPORTED_COLUMNS]]
        if len(columns) > REPORTED_COLUMNS:
            rest = columns[REPORTED_COLUMNS:]
            lines.append(f"  {rel}  {len(rest)} more columns  {rest[0][1]:.3g}")
    lines.append("changed digests, counted and not compared:")
    lines += [f"  {rel}  {found['digests']}" for rel, found in sorted(changes.items()) if "digests" in found]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", metavar="REV", help="the git revision to compare this tree with")
    parser.add_argument("--tolerance", metavar="TOL", type=float, help="compare floats within this absolute tolerance")
    args = parser.parse_args()
    rev = args.rev
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        for name, doc in SCENARIOS.items():
            (inputs / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        checkout = tmp / "checkout"
        try:
            writer = [sys.executable, "-c", WRITER, str(HERE), str(inputs / "tapped-network.json")]
            run(writer, ROOT, dict(ENV, PYTHONPATH=str(ROOT / "src")))
            run(["git", "worktree", "add", "--detach", str(checkout), rev], ROOT)
            try:
                collect(checkout, inputs, tmp / "rev")
                collect(ROOT, inputs, tmp / "tree")
            finally:
                run(["git", "worktree", "remove", "--force", str(checkout)], ROOT)
        except CommandFailed as exc:
            print(f"error: {exc}")
            return 1
        changes: dict = {}
        difference = first_difference(tmp / "rev", tmp / "tree", args.tolerance, changes)
        if args.tolerance is not None:
            print(change_report(changes, args.tolerance))
        if difference is not None:
            print(f"{rev} (rev) and this tree (tree) differ at {difference}")
            return 1
        results = sorted(p.name for p in (tmp / "tree").iterdir())
        files = sum(p.is_file() for p in (tmp / "tree").rglob("*"))
        within = "" if args.tolerance is None else f" within {args.tolerance:g}"
        print(f"{rev} and this tree are equal{within} on {files} files of {len(results)} results: {', '.join(results)}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
