#!/usr/bin/env python3
"""gridcomm benchmark: one workload per process, outputs checked, metrics printed.

    python3 bench/run.py --workload storm-238 --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The full record of the run (digests, BLAS threads, host reference
times, unscaled metrics, problems found, and with --trace 1 every span) goes to
.bench_out/<workload>-seed<seed>-trace<0|1>.json. Exit code 2 means no
result: bad arguments, a missing package or a failed set-up.
"""

import os

# Fixed before numpy loads: one BLAS thread, at or below nproc on any host.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["carve-417", "storm-238", "fleet-30"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "gridcomm" / "__init__.py").is_file():
        print(f"error: no gridcomm package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import checks
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    run_workload = workloads.WORKLOADS[args.workload]
    try:
        outcome = run_workload(args.seed, args.seconds, workloads.fresh_dir(work), tracer)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = tracer.layer_metrics()
        traced, untraced = statistics.median(outcome.traced_s), statistics.median(outcome.untraced_s)
        metrics["trace.overhead"] = (traced / untraced, "ratio")
        metrics["trace.traced_ms"] = (1e3 * traced, "ms")
        metrics["trace.untraced_ms"] = (1e3 * untraced, "ms")
        metrics["host.ref_ms"] = (outcome.host.ms(), "ms")
        lps = list(tracer.lp_records.values())
        outcome.report(tracer.nesting_problems())
        outcome.report(checks.lp_problems(lps))
        outcome.details["lps_checked"] = len(lps)
    else:
        metrics = outcome.metrics
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        problems=outcome.problems,
        details=outcome.details,
        host={
            "nproc": os.cpu_count(),
            "blas_threads_set": int(BLAS_THREADS),
            "blas_threads_reported": blas_threads(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "ref_ms": outcome.host.ms(),
            "ref_chunks": outcome.host.chunks,
            "metrics_scaled_to_ref_ms": workloads.REF_MS,
        },
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")
    for p in outcome.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
