#!/usr/bin/env python3
"""Smoke-check one benchmark workload: a short traced run at seed 0.

    python3 .github/bench_smoke.py WORKLOAD SECONDS NEEDS_LPS

The run passes when its result is `correct: true` with `failed: 0` and, if
NEEDS_LPS is 1, its record (.bench_out/<workload>-seed0-trace1.json) shows
at least one control LP checked against HiGHS (`details.lps_checked`), so
the cross-check cannot pass with nothing checked. bench/run.py exits 0 even
when a check fails, so the verdict is read from the last line of its stdout,
one JSON object. A run that fails, or gives no result, prints a GitHub error
annotation that names the workload and exits 1.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def passed(workload: str, seconds: str, needs_lps: bool) -> bool:
    run = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", seconds, "--trace", "1"]
    done = subprocess.run(run, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
        record = json.loads((ROOT / ".bench_out" / f"{workload}-seed0-trace1.json").read_text())
        lps = record["details"]["lps_checked"]
    except (IndexError, ValueError, KeyError, OSError) as exc:
        print(f"{workload}: no result (bench/run.py exit {done.returncode}): {exc!r}")
        return False
    print(workload, "correct:", result["correct"], "failed:", result["failed"], "lps_checked:", lps)
    return done.returncode == 0 and result["correct"] is True and result["failed"] == 0 and (lps > 0 or not needs_lps)


def main() -> int:
    workload, seconds, needs_lps = sys.argv[1:]
    if passed(workload, seconds, needs_lps == "1"):
        return 0
    print(f"::error::benchmark smoke run failed: {workload}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
