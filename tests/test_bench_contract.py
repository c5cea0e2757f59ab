"""The package names the benchmark in bench/ reaches into.

bench/ changes only in a benchmark revision, so a package change that drops
or renames a name it uses would break `bench/run.py` (for a tracer target,
only a traced run) with no other test failing. These tests run the bench's
own code on small inputs.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gridcomm import simulation
from gridcomm.simulation import Event, EventKind, Scenario

from conftest import prepared

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch) -> SimpleNamespace:
    monkeypatch.syspath_prepend(str(BENCH))
    return SimpleNamespace(spans=importlib.import_module("spans"), workloads=importlib.import_module("workloads"))


def test_tracer_resolves_every_target(bench):
    # Installing looks up every TARGETS attribute, gridcomm.sensitivity's
    # build_ybus among them, and puts each back on leaving.
    originals = [getattr(importlib.import_module(m), attr) for m, attr, _ in bench.spans.TARGETS]
    with bench.spans.Tracer().installed():
        pass
    assert [getattr(importlib.import_module(m), attr) for m, attr, _ in bench.spans.TARGETS] == originals


def test_node_weights_runs(bench, net6, net6_path):
    w = bench.workloads.node_weights(net6_path)
    n1 = len(net6.buses) - 1
    assert w.shape == (n1, n1)
    assert np.array_equal(w, w.T)


def test_run_report_writes_what_run_scenario_writes(bench, net6, tmp_path):
    # The bench builds its RunReport from a stepped state field by field;
    # from run_scenario's final state it writes the same files.
    part, sens = prepared(net6)
    events = [Event(at_tick=1, kind=EventKind.LOAD_CHANGE, target=4, magnitude=0.5)]
    report = simulation.run_scenario(net6, Scenario(events=events, duration=3), part, sens)
    assert report.controls
    simulation.write_report(report, tmp_path / "scenario")
    simulation.write_report(bench.workloads.run_report(report.final_state), tmp_path / "bench")
    written = sorted(p.name for p in (tmp_path / "scenario").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "bench").iterdir())
    assert "controls.csv" in written and "summary.txt" in written
    for name in written:
        assert (tmp_path / "bench" / name).read_bytes() == (tmp_path / "scenario" / name).read_bytes()
