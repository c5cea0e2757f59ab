"""Command line front end.

Three subcommands cover the batch workflow: `partition` writes the
community decomposition of a network, `simulate` runs a scenario against it
and writes the report directory, `sensitivity` dumps the four sensitivity
submatrices. Networks come from a JSON file (--network) or the synthetic
generator (--synth key=value,...).

Exit codes: 0 success, 2 bad input (an unreadable or unwritable path
included), 3 power flow failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .control import V_LIMITS
from .network import NetworkModel
from .network_io import joined, load_network, write_table
from .partition import Dendrogram, Partition, partition_network
from .powerflow import PowerFlowError, solve_power_flow
from .sensitivity import SensitivityMatrix, SensitivityMode, compute_sensitivity_matrix
from .simulation import load_scenario, run_scenario, validate_scenario, write_report
from .synthetic import SynthSpec, generate_synthetic_network

_SYNTH_KEYS = {
    "feeders": "n_feeders",
    "transformers": "n_transformers",
    "rows": "grid_rows",
    "cols": "grid_cols",
    "loads": "n_loads",
    "dgs": "n_dgs",
}


def _parse_synth(text: str, seed: int) -> SynthSpec:
    kwargs = {"seed": seed}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"synth spec entry {part!r} is not key=value")
        if key not in _SYNTH_KEYS:
            raise ValueError(f"unknown synth key {key!r}; known: {sorted(_SYNTH_KEYS)}")
        if _SYNTH_KEYS[key] in kwargs:
            raise ValueError(f"synth key {key!r} is given twice")
        try:
            kwargs[_SYNTH_KEYS[key]] = int(value)
        except ValueError:
            raise ValueError(f"synth key {key!r} needs an integer, got {value!r}")
    return SynthSpec(**kwargs)


def _network(args) -> NetworkModel:
    """Load the network named by --network, or generate --synth/--seed's."""
    if args.network:
        if args.seed is not None:
            raise ValueError("--seed applies only to --synth, not to --network")
        return load_network(args.network)
    return generate_synthetic_network(_parse_synth(args.synth, args.seed or 0))


def _linearized(net: NetworkModel) -> SensitivityMatrix:
    """Solve net's flow and take the sensitivities at the solved point."""
    return compute_sensitivity_matrix(net, solve_power_flow(net))


def _write_partition(partition: Partition, dendro: Dendrogram, net: NetworkModel, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    dg_comm: dict[int, list[int]] = {}
    for d in net.dgs_sorted():
        dg_comm.setdefault(partition.community_of[d.bus], []).append(d.id)
    write_table(
        out / "community_table.csv",
        ["community", "nodes", "dgs"],
        ((c, joined(partition.members(c)), joined(dg_comm.get(c, ()))) for c in range(partition.n_communities)),
    )
    write_table(out / "node_assignment.csv", ["bus", "community"], sorted(partition.community_of.items()))
    steps = ((k, s.community_a, s.community_b, s.modularity_after) for k, s in enumerate(dendro.steps, 1))
    write_table(
        out / "dendrogram.csv",
        ["step", "community_a", "community_b", "modularity"],
        [(0, None, None, dendro.initial_modularity), *steps],
    )


def cmd_partition(args) -> int:
    net = _network(args)
    sens = _linearized(net)
    partition, dendro = partition_network(net, sens, mode=SensitivityMode(args.mode))
    _write_partition(partition, dendro, net, Path(args.out))
    print(f"communities:{partition.n_communities} modularity:{repr(partition.modularity)}")
    return 0


def cmd_simulate(args) -> int:
    for flag, value in (("--vmin", args.vmin), ("--vmax", args.vmax)):
        if not np.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value}")
    if not args.vmin < args.vmax:
        raise ValueError(f"--vmin must be below --vmax, got {args.vmin} >= {args.vmax}")
    scenario = load_scenario(args.scenario)
    net = _network(args)
    validate_scenario(scenario, net)  # a bad scenario is bad input, whether or not the flow solves
    sens = _linearized(net)
    partition, _ = partition_network(net, sens, mode=SensitivityMode(args.mode))
    report = run_scenario(
        net,
        scenario,
        partition,
        sens,
        mode=SensitivityMode(args.mode),
        v_limits=(args.vmin, args.vmax),
    )
    write_report(report, Path(args.out))
    print(report.summary())
    return 0


def cmd_sensitivity(args) -> int:
    sens = _linearized(_network(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n1 = len(sens.bus_ids)
    p, q = (sens.columns(mode, sens.bus_ids) for mode in (SensitivityMode.VP, SensitivityMode.VQ))
    for name, block in (("a_vq", q[n1:]), ("a_vp", p[n1:]), ("a_theta_p", p[:n1]), ("a_theta_q", q[:n1])):
        rows = zip(sens.bus_ids, block.tolist())
        write_table(out / f"{name}.csv", ["bus", *sens.bus_ids], ([bus, *row] for bus, row in rows))
    print(f"wrote sensitivity blocks for {len(sens.bus_ids)} buses to {out}")
    return 0


def _add_common(p: argparse.ArgumentParser, partitions: bool = True, scenario: bool = False) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--network", help="network JSON file")
    src.add_argument("--synth", help="synthetic spec, e.g. feeders=2,transformers=4,rows=4,cols=4,loads=10,dgs=4")
    p.add_argument("--seed", type=int, help="seed for --synth (default 0); an error with --network")
    if partitions:
        p.add_argument(
            "--mode", choices=[x.value for x in SensitivityMode], default="vq", help="sensitivity mode (default vq)"
        )
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    if scenario:
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--vmin", type=float, default=V_LIMITS[0], help="lower voltage limit in pu")
        p.add_argument("--vmax", type=float, default=V_LIMITS[1], help="upper voltage limit in pu")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcomm",
        description="DG community partitioning and self-organizing voltage control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a network into DG communities")
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("simulate", help="run a scenario with distributed voltage control")
    _add_common(p, scenario=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sensitivity", help="write the sensitivity submatrices")
    _add_common(p, partitions=False)
    p.set_defaults(func=cmd_sensitivity)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: a process that runs many
    commands builds it once. Parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PowerFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
