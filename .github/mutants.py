#!/usr/bin/env python3
"""Check that tier-1 kills every listed mutant of src/.

    python3 .github/mutants.py

Each entry of MUTANTS is (file, exact old text, new text, why): one wrong
change that tier-1 must catch. Every entry must match its file exactly
once; an entry that does not is an error (exit 2), never a skip, so a
refactor that moves the text must move the entry too.

The script copies this tree into a temporary directory and runs tier-1
there once as it is, which must pass (exit 2 otherwise). Then, for each
entry, it applies the edit, runs tier-1 with -x, and prints "killed" with
the first failing test, or "survived". It restores the file before the
next entry, and exits 1 if any mutant survived, 0 if every one was killed.

A mutant that turns out to be equivalent to the code (no test could tell
them apart) moves to a commented list below MUTANTS, with its reason; the
list is never shortened to pass.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_S = 900
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*", "*.egg-info")

SIM = "src/gridcomm/simulation.py"
NETWORK_IO = "src/gridcomm/network_io.py"
MUTANTS: list[tuple[str, str, str, str]] = [
    (
        SIM,
        "- [t.phase_shift for t in touching]",
        "+ [t.phase_shift for t in touching]",
        "a CA's reverse-flow right-hand side adds the phase shift instead of taking it off",
    ),
    (
        SIM,
        "        state.excluded.pop(community, None)\n",
        "",
        "a DG event no longer clears the community's exhausted-DG exclusions",
    ),
    (
        SIM,
        "if abs(xi) > 1e-12:",
        "if abs(xi) > 1e-3:",
        "small adjustments are dropped without a command",
    ),
    (
        SIM,
        "if ev.at_tick >= duration:",
        "if ev.at_tick > duration:",
        "an event at tick == duration is accepted, and never fires",
    ),
    (
        SIM,
        "        if (dg.online if power else dg.id not in state.comm_lost) is on:\n            continue\n",
        "",
        "a repeated trip or comm loss re-solves, notifies and re-organizes again, and clears the exclusions",
    ),
    (
        SIM,
        "    state.sens = compute_sensitivity_matrix(state.net, pf)\n",
        "    state.sens = compute_sensitivity_matrix(state.net, pf)\n    state.sens.online_columns(state.mode)\n",
        "every re-solve solves its DG columns, read or not",
    ),
    (
        "src/gridcomm/sensitivity.py",
        "online_dgs=net.dgs_sorted(online_only=True)",
        "online_dgs=net.dgs_sorted()",
        "the sensitivities take every DG as online",
    ),
    (
        "src/gridcomm/powerflow.py",
        "ysh = 0.5j * br.b_shunt",
        "ysh = 1j * br.b_shunt",
        "a branch's whole shunt is put at each end",
    ),
    (
        "src/gridcomm/powerflow.py",
        "-ys / np.conj(a), -ys / a, ys)",
        "-ys / a, -ys / np.conj(a), ys)",
        "a phase shifter's two off-diagonal couplings are swapped",
    ),
    (
        "src/gridcomm/powerflow.py",
        "s[index_of[d.bus]] += complex(d.p_out, d.q_out)",
        "s[index_of[d.bus]] += complex(d.p_out, -d.q_out)",
        "a DG injects the conjugate of its output",
    ),
    (
        SIM,
        "LIN_GUARD = 2e-3",
        "LIN_GUARD = 0.0",
        "the LP targets the band itself, with no margin for the linearization",
    ),
    (
        "src/gridcomm/control.py",
        "a[-1, k] = -sign  # the objective variable capped at zero",
        "a[-1, k] = 0.0  # the objective variable capped at zero",
        "the control LP's objective variable is no longer capped at zero",
    ),
    (
        "src/gridcomm/control.py",
        "dg_ids=tuple(sorted({anchor} | located))",
        "dg_ids=(anchor,)",
        "a subset leaves out the DGs at its own nodes",
    ),
    (
        "src/gridcomm/partition.py",
        "community_of[min(near)]",
        "community_of[max(near)]",
        "the slack joins the community of its highest-id neighbour",
    ),
    (
        NETWORK_IO,
        '    if unknown:\n        raise error(f"{path}: unknown top-level key(s) {sorted(unknown)}")\n',
        "",
        "a file's unknown top-level member is silently dropped",
    ),
    (
        NETWORK_IO,
        "rules[name] = types, math.radians, expected",
        "rules[name] = types, float, expected",
        "an angle is read from the file in degrees and kept as if radians",
    ),
    (
        NETWORK_IO,
        "except (ValueError, RecursionError) as exc:",
        "except json.JSONDecodeError as exc:",
        "a file that is not UTF-8, nests too deep or holds an over-long integer fails without its path",
    ),
    (
        SIM,
        "return isinstance(value, kind) and not isinstance(value, bool)",
        "return isinstance(value, kind)",
        "a scenario built in code takes a bool as a tick, target, duration or magnitude",
    ),
    (
        "src/gridcomm/powerflow.py",
        "from .network import NetworkModel, adjacency, peripheral_levels",
        "from .network import NetworkModel, adjacency, levels as peripheral_levels",
        "the Jacobian's breadth-first levels are rooted at the slack again",
    ),
    (
        "src/gridcomm/network.py",
        "key=lambda b: (len(near[b]), b)",
        "key=lambda b: (-len(near[b]), b)",
        "the root search moves to the most-connected bus of the last level",
    ),
    (
        "src/gridcomm/powerflow.py",
        "for g in map(np.sort, groups)]",
        "for g in groups]",
        "a block's buses keep their level order, and one such block is solved dense as if in natural order",
    ),
    (
        "src/gridcomm/powerflow.py",
        "dk - lk @ self.x[-1]",
        "dk + lk @ self.x[-1]",
        "the block-Thomas factor adds the Schur update to D_(k+1) instead of taking it off",
    ),
]

# Equivalent mutants, each with the reason no test can tell it from the
# code: none yet.


def tier1(tree: Path) -> tuple[bool, str]:
    """Run tier-1 in tree: (passed, the first failing test or a note)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, ""
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return False, first.group(1) if first else f"pytest exit {done.returncode}"


def main() -> int:
    stale = []
    for n, (rel, old, _, why) in enumerate(MUTANTS, 1):
        count = (ROOT / rel).read_text().count(old)
        if count != 1:
            stale.append(f"entry {n} ({why}): its old text occurs {count} times in {rel}, not once")
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="gridcomm-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        start = time.perf_counter()
        passed, first = tier1(tree)
        if not passed:
            print(f"tier-1 fails on the unmutated copy ({first}); no mutant can be judged", file=sys.stderr)
            return 2
        print(f"unmutated: passed ({time.perf_counter() - start:.0f} s)", flush=True)

        survived = 0
        for n, (rel, old, new, why) in enumerate(MUTANTS, 1):
            path = tree / rel
            text = path.read_text()
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            passed, first = tier1(tree)
            path.write_text(text)
            verdict = "SURVIVED" if passed else f"killed by {first}"
            print(f"{n:2d} {rel}: {why}: {verdict} ({time.perf_counter() - start:.0f} s)", flush=True)
            survived += passed
    print(f"{survived} survived" if survived else "every mutant killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
