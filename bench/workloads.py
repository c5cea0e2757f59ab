"""The three workloads: carve-417, storm-238 and fleet-30.

Each sets up once, then runs whole rounds of its operation for about
`seconds` in all, checking outputs outside the timed regions. After every
round it repeats its set-up for SETUP_SHARE of the round's time (at least
once, at most SETUP_MAX_REPS times), so set-up time is a median over repetitions spread across the run.
About every REF_EVERY_S a fixed host reference runs for REF_SHARE of the
time since it last ran; every timed operation is scaled by how fast the
reference ran around it, so the end-to-end times read as on a host of
constant speed (see README.md). With a tracer, every other round
runs with the tracer's wrappers installed, so one process yields both the
per-layer figures and the traced-over-untraced overhead.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from gridcomm import cli, network_io, partition, powerflow, sensitivity, simulation

REF_MS = 5.0  # reference pass time the end-to-end metrics are scaled to
REF_SHARE = 0.05  # reference time as a share of the time it covers
REF_EVERY_S = 1.0  # run the reference after the first operation that ends this long after it last ran
REF_MIN_S = 0.05  # shortest reference chunk
SETUP_SHARE = 0.15  # set-up repetitions after a round, as a share of the round's time
SETUP_MAX_REPS = 20  # set-up repetitions after a round at most (carve-417's set-up takes ~25 ms)
TAIL_PERCENTILE = 89
TAIL_MIN_SAMPLES = 91  # at least ten beyond the 89th percentile
STORM_MIN_ROUNDS = -(-TAIL_MIN_SAMPLES // inputs.STORM_TICKS)
FLEET_MIN_ROUNDS = -(-TAIL_MIN_SAMPLES // inputs.FLEET_NETWORKS)
MAX_PROBLEMS = 20


_REF_MATRIX = np.random.default_rng(0).random((128, 128))


def reference_pass() -> None:
    """One fixed pass of pure-Python arithmetic and a small numpy product chain."""
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    m = _REF_MATRIX
    for _ in range(4):
        m = m @ _REF_MATRIX
        m /= np.abs(m).max()


class HostReference:
    """How fast this host runs, sampled all through the run.

    sample() runs reference passes for REF_SHARE of the time since it last
    ran (at least REF_MIN_S); maybe_sample() does so once REF_EVERY_S have
    passed, and is called after every timed operation. scale(at) is REF_MS
    over the pass time at moment `at`, interpolated between the samples
    around it.
    """

    def __init__(self):
        self.chunks: list[tuple[float, int, float]] = []  # (middle, passes, seconds)
        self._since = time.perf_counter()

    def sample(self) -> None:
        budget = max(REF_MIN_S, REF_SHARE * (time.perf_counter() - self._since))
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < budget:
            reference_pass()
            passes += 1
        seconds = time.perf_counter() - start
        self.chunks.append((start + seconds / 2, passes, seconds))
        self._since = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._since >= REF_EVERY_S:
            self.sample()

    def ms(self) -> float:
        """ms per reference pass over the run."""
        return 1e3 * sum(sec for _, _, sec in self.chunks) / sum(n for _, n, _ in self.chunks)

    def scale(self, at: float) -> float:
        middles = [m for m, _, _ in self.chunks]
        pass_ms = [1e3 * sec / n for _, n, sec in self.chunks]
        return REF_MS / float(np.interp(at, middles, pass_ms))


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs; no result is printed."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    host: HostReference = field(default_factory=HostReference)
    setup_s: list[tuple[float, float]] = field(default_factory=list)  # every set-up repetition, stamped
    traced_s: list[float] = field(default_factory=list)  # operation times, traced rounds
    untraced_s: list[float] = field(default_factory=list)  # operation times, untraced rounds
    start: float = field(default_factory=time.perf_counter)

    def report(self, problems: list[str]) -> None:
        for p in problems:
            if len(self.problems) < MAX_PROBLEMS and p not in self.problems:
                self.problems.append(p)

    def timed(self, seconds: float, traced: bool) -> None:
        (self.traced_s if traced else self.untraced_s).append(seconds)

    @staticmethod
    def stamp(seconds: float) -> tuple[float, float]:
        """A duration that just ended, with the moment at its middle."""
        return seconds, time.perf_counter() - seconds / 2

    def set_up(self, make, d: Path, tracer):
        """One timed set-up repetition into the emptied directory d, traced
        when there is a tracer; returns what `make(d, traced)` made."""
        fresh_dir(d)
        with tracing(tracer, True) as traced:
            start = time.perf_counter()
            made = make(d, traced)
            self.setup_s.append(self.stamp(time.perf_counter() - start))
        self.host.maybe_sample()
        return made

    def rounds(self, seconds: float, min_rounds: int, make, d: Path, tracer):
        """Round numbers: at least min_rounds, then more while one more round
        of average length still ends within `seconds` of the start of the
        run. After every round, set-up repetitions `make` into d run for
        SETUP_SHARE of its time (at least one, at most SETUP_MAX_REPS). The
        host reference is sampled before the first round and after the
        last."""
        self.host.sample()
        n = 0
        while n < min_rounds or (time.perf_counter() - self.start) * (n + 1) / n <= seconds:
            round_start = time.perf_counter()
            yield n
            budget = SETUP_SHARE * (time.perf_counter() - round_start)
            setup_start = time.perf_counter()
            for _ in range(SETUP_MAX_REPS):
                self.set_up(make, d, tracer)
                if time.perf_counter() - setup_start >= budget:
                    break
            n += 1
        self.host.sample()


def tail(values: list[float]) -> float:
    """The TAIL_PERCENTILE when at least TAIL_MIN_SAMPLES values back it,
    else the median."""
    if len(values) >= TAIL_MIN_SAMPLES:
        return float(np.percentile(values, TAIL_PERCENTILE))
    return statistics.median(values)


def set_metrics(out: Outcome, partitions, ops, count: int) -> None:
    """End-to-end metrics from the stamped set-up times, partition call
    times and timed operations, where the operations made `count` networks:
    each time scaled to a host on which a reference pass takes REF_MS into
    out.metrics, unscaled into the run record."""

    def figures(scale) -> dict[str, tuple[float, str]]:
        def seconds(stamped):
            return [s * scale(at) for s, at in stamped]

        ms = [1e3 * s for s in seconds(ops)]
        return {
            "setup_s": (statistics.median(seconds(out.setup_s)), "s"),
            "partition_s": (statistics.median(seconds(partitions)), "s"),
            "tick_ms.p50": (statistics.median(ms), "ms"),
            "tick_ms.tail": (tail(ms), "ms"),
            "networks_per_s": (count / (1e-3 * sum(ms)), "1/s"),
        }

    out.metrics = figures(out.host.scale)
    out.details["unscaled"] = figures(lambda at: 1.0)
    out.details["stamped"] = {"setup": out.setup_s, "partition": partitions, "operation": ops}
    out.details["setup_repetitions"] = len(out.setup_s)


@contextlib.contextmanager
def tracing(tracer, on: bool):
    if tracer is not None and on:
        with tracer.installed():
            yield True
    else:
        yield False


def call_cli(argv: list[str], tracer, traced: bool) -> tuple[int, str, float]:
    """One in-process `gridcomm` call; returns exit code, stdout, seconds.
    An exception escaping `main` counts as exit code 1, as it would for
    the installed command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if traced:
                tracer.new_op()
                with tracer.span("cli.main"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        except Exception as exc:  # the benchmark keeps running and counts the failure
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - start
    if code != 0:
        out.write(err.getvalue())
    return code, out.getvalue(), seconds


def parse_partition_line(text: str) -> tuple[int, float]:
    """`communities:<k> modularity:<q>` as printed by `gridcomm partition`."""
    fields = dict(part.split(":", 1) for part in text.split())
    return int(fields["communities"]), float(fields["modularity"])


def parse_summary(text: str) -> dict[str, int]:
    return {k: int(v) for k, v in (part.split(":", 1) for part in text.split())}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def partition_call(network: Path, out_dir: Path, tracer, traced: bool, mode: str = "vq"):
    argv = ["partition", "--network", str(network), "--mode", mode, "--out", str(fresh_dir(out_dir))]
    return call_cli(argv, tracer, traced)


# ---------------------------------------------------------------- carve-417


def carve(seed: int, seconds: float, work: Path, tracer) -> Outcome:
    """Repeated `gridcomm partition` calls on one 417-bus network."""
    out = Outcome()

    def set_up(d: Path, traced: bool) -> Path:
        return inputs.carve_network(seed, d / "network.json")

    network = out.set_up(set_up, work / "inputs", tracer)

    doc = json.loads(network.read_text())
    bus_ids = [b["id"] for b in doc["buses"]]
    slack = next(b["id"] for b in doc["buses"] if b.get("kind") == "slack")

    calls, digests = [], None
    for n in out.rounds(seconds, 3, set_up, work / "setup", tracer):
        out.attempted += 1
        out_dir = work / "partition"
        with tracing(tracer, n % 2 == 0) as traced:
            code, text, dt = partition_call(network, out_dir, tracer, traced)
        if code != 0:
            out.failed += 1
            out.report([f"partition call exited {code}: {text.strip()[-200:]}"])
            continue
        calls.append(out.stamp(dt))
        out.timed(dt, traced)
        these = {
            "dendrogram": checks.digest([out_dir / "dendrogram.csv"]),
            "community_tables": checks.digest([out_dir / "community_table.csv", out_dir / "node_assignment.csv"]),
        }
        if digests is None:
            digests = these
            k, q = parse_partition_line(text)
            out.report(checks.check_partition(out_dir, bus_ids, slack, k, q, node_weights(network)))
        elif these != digests:
            out.report(["two partition calls on the same network wrote different tables"])
        out.host.maybe_sample()
    out.details["digests"] = digests
    if calls:
        set_metrics(out, calls, calls, len(calls))
    return out


def node_weights(network: Path, mode: str = "vq") -> np.ndarray:
    """The node graph partition works on, from the public combine_weights."""
    net = network_io.load_network(network)
    sens = sensitivity.compute_sensitivity_matrix(net, powerflow.solve_power_flow(net))
    mode = sensitivity.SensitivityMode(mode)
    cols = sensitivity.dg_columns(sens, net, mode=mode, online_only=True)
    dg_nodes = [sens.bus_ids.index(net.dg_by_id(g).bus) for g in cols.dg_ids]
    graph = partition.combine_weights(sens.voltage_block(mode), partition.build_dg_adjacency(cols.matrix), dg_nodes)
    return graph.weights


# ---------------------------------------------------------------- storm-238


def storm(seed: int, seconds: float, work: Path, tracer) -> Outcome:
    """One initialized 238-bus simulation, stepped through whole rounds of
    the storm scenario; each round starts from a copy of the initialized
    state. The report written is that of the first round, so its digest
    does not depend on how many rounds fit in the run."""
    out = Outcome()
    partitions = []

    def set_up(d: Path, traced: bool):
        """Generate and write the network, partition it with `gridcomm
        partition`, then initialize a simulation on that partition."""
        storm_in = inputs.storm_inputs(seed, d / "network.json")
        code, text, dt = partition_call(storm_in.network, d / "partition", tracer, traced)
        if code != 0:
            raise SetupError(f"partition of the storm network exited {code}: {text.strip()[-200:]}")
        partitions.append(out.stamp(dt))
        k, q = parse_partition_line(text)
        part = partition.Partition(checks.read_assignment(d / "partition"), k, q)
        net = network_io.load_network(storm_in.network)
        sens = sensitivity.compute_sensitivity_matrix(net, powerflow.solve_power_flow(net))
        if traced:
            tracer.new_op()
        state = simulation.initialize(net, part, sens, v_limits=inputs.STORM_V_LIMITS)
        return storm_in, part, net, state

    storm_in, part, net, state0 = out.set_up(set_up, work / "inputs", tracer)
    y = checks.admittance([b.id for b in net.buses], net.branches, net.transformers)
    as_loaded = {d.id: (d.p_out, d.q_out, d.p_surplus, d.q_surplus) for d in net.dgs}
    dg_bus = {d.id: d.bus for d in net.dgs}
    ticks, rounds_done, directions = [], 0, {"overvoltage": 0, "undervoltage": 0}
    for r in out.rounds(seconds, STORM_MIN_ROUNDS, set_up, work / "setup", tracer):
        # Traced runs step each storm twice, traced then untraced.
        events = storm_in.round_events(r // 2 if tracer else r)
        state = copy.deepcopy(state0)
        with tracing(tracer, r % 2 == 0) as traced:
            for t, tick_events in enumerate(events):
                out.attempted += 1
                if traced:
                    tracer.new_op()
                start = time.perf_counter()
                try:
                    simulation.step(state, tick_events)
                except Exception as exc:  # SimulationDiverged or any other fault: count it, end the round
                    out.failed += 1
                    out.report([f"round {r} tick {t}: {type(exc).__name__}: {exc}"])
                    break
                dt = time.perf_counter() - start
                ticks.append(out.stamp(dt))
                out.timed(dt, traced)
                out.report(checks.check_operating_point(y, state.net, state.pf))
                out.report(checks.check_dg_boxes(state.net, as_loaded))
                out.host.maybe_sample()
        rounds_done += 1
        out.report(
            checks.message_problems(
                [(str(m.sender), str(m.receiver)) for m in state.messages], part.community_of, dg_bus
            )
        )
        if state.violations_seen != state.violations_resolved + len(state.open_episode_since):
            out.report(["violations seen != resolved + still open"])
        for c in state.controls:
            directions[c.direction] += 1
        if r == 0:
            first_round = state

    report_dir = fresh_dir(work / "report")
    with tracing(tracer, True):
        simulation.write_report(run_report(first_round), report_dir)
    out.details.update(
        {
            "digests": {"report": checks.digest([report_dir])},
            "raised_dgs": storm_in.raised,
            "controls_by_direction": directions,
            "ticks": len(ticks),
        }
    )
    if tracer:
        # Step spans must cover the ticks as timed here. That child spans
        # nest inside them without overlap is checked for every span (run.py).
        acc = dict(tracer.step_accounting(), timed_ms=1e3 * sum(out.traced_s))
        out.details["step_accounting"] = acc
        if not 0.99 * acc["timed_ms"] <= acc["tick_ms"] <= acc["timed_ms"]:
            out.report([f"step spans cover {acc['tick_ms']:.1f} of {acc['timed_ms']:.1f} traced tick ms"])
    set_metrics(out, partitions, ticks, rounds_done)
    return out


def run_report(state) -> simulation.RunReport:
    return simulation.RunReport(
        scenario="storm-238",
        duration=state.tick,
        violations=state.violations_seen,
        resolved=state.violations_resolved,
        unresolved=len(state.open_episode_since),
        actions=state.control_actions,
        regenerations=state.regenerations,
        partition=state.partition,
        events=state.events_applied,
        controls=state.controls,
        voltage_rows=state.voltage_rows,
        subset_rows=state.subset_rows,
        messages=state.messages,
        final_state=state,
    )


# ---------------------------------------------------------------- fleet-30


def fleet(seed: int, seconds: float, work: Path, tracer) -> Outcome:
    """Rounds over a batch of 30-bus networks: per network one `gridcomm
    partition` and one `gridcomm simulate` call with the same --mode."""
    out = Outcome()

    def set_up(d: Path, traced: bool):
        return inputs.fleet_inputs(seed, d)

    members = out.set_up(set_up, work / "inputs", tracer)

    shapes = []
    for m in members:
        doc = json.loads(m.network.read_text())
        slack = next(b["id"] for b in doc["buses"] if b.get("kind") == "slack")
        shapes.append(([b["id"] for b in doc["buses"]], slack, {g["id"]: g["bus"] for g in doc["dgs"]}))

    partitions, calls, first = [], [], {}
    for r in out.rounds(seconds, FLEET_MIN_ROUNDS, set_up, work / "setup", tracer):
        done = []  # (network, partition stdout, simulate stdout), checked after the round
        with tracing(tracer, r % 2 == 0) as traced:
            for k, m in enumerate(members):
                part_dir = work / "partitions" / f"net{k:02d}"
                out.attempted += 1
                code, part_text, dt = partition_call(m.network, part_dir, tracer, traced, mode=m.mode)
                if code != 0:
                    out.failed += 1
                    out.report([f"partition of network {k} exited {code}: {part_text.strip()[-200:]}"])
                    continue
                partitions.append(out.stamp(dt))
                run_dir = fresh_dir(work / "runs" / f"net{k:02d}")
                argv = ["simulate", "--network", str(m.network), "--scenario", str(m.scenario)]
                argv += ["--mode", m.mode, "--out", str(run_dir)]
                out.attempted += 1
                code, text, dt = call_cli(argv, tracer, traced)
                if code != 0:
                    out.failed += 1
                    out.report([f"simulate on network {k} exited {code}: {text.strip()[-200:]}"])
                    continue
                calls.append(out.stamp(dt))
                out.timed(dt, traced)
                done.append((k, part_text, text))
                out.host.maybe_sample()
        # Checked outside the traced block: node_weights calls the program's
        # functions, which must not add spans to the traced figures.
        for k, part_text, text in done:
            m, (bus_ids, slack, dg_bus) = members[k], shapes[k]
            part_dir, run_dir = work / "partitions" / f"net{k:02d}", work / "runs" / f"net{k:02d}"
            dig = checks.digest([part_dir, run_dir])
            if k not in first:
                first[k] = dig
                n_comm, q = parse_partition_line(part_text)
                weights = node_weights(m.network, m.mode)
                out.report(checks.check_partition(part_dir, bus_ids, slack, n_comm, q, weights))
                community_of = checks.read_assignment(part_dir)
                out.report(fleet_checks(run_dir, text, m.duration, len(bus_ids), dg_bus, community_of))
            elif dig != first[k]:
                out.report([f"network {k}: a second run wrote different tables or reports"])

    combined = hashlib.sha256("".join(first[k] for k in sorted(first)).encode()).hexdigest()
    out.details["digests"] = {"partitions_and_reports": combined}
    out.details["simulate_calls"] = len(calls)
    if calls:
        set_metrics(out, partitions, calls, len(calls))
    return out


def fleet_checks(run_dir: Path, stdout: str, duration: int, n_buses: int, dg_bus, community_of) -> list[str]:
    problems = []
    summary = parse_summary(stdout)
    if summary["violations"] != summary["resolved"] + summary["unresolved"]:
        problems.append(f"summary {stdout.strip()!r}: violations != resolved + unresolved")
    rows = checks.read_rows(run_dir / "voltages.csv")
    if len(rows) - 1 != duration * n_buses:
        problems.append(f"voltages.csv has {len(rows) - 1} rows, expected {duration} x {n_buses}")
    messages = [(row[2], row[3]) for row in checks.read_rows(run_dir / "messages.csv")[1:]]
    problems += checks.message_problems(messages, community_of, dg_bus)
    return problems


WORKLOADS = {"carve-417": carve, "storm-238": storm, "fleet-30": fleet}
