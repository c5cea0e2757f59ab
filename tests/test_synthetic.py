import pytest

from gridcomm.network import BusKind, validate_network
from gridcomm.powerflow import solve_power_flow
from gridcomm.synthetic import PRIMARY_KV, SECONDARY_KV, SynthesisError, SynthSpec, generate_synthetic_network


def test_seed1_layout_properties():
    spec = SynthSpec(n_feeders=2, n_transformers=4, grid_rows=4, grid_cols=4, n_loads=12, n_dgs=6, seed=1)
    net = generate_synthetic_network(spec)

    assert validate_network(net) == []

    slack = [b for b in net.buses if b.kind is BusKind.SLACK]
    assert len(slack) == 1 and slack[0].id == 0 and slack[0].base_kv == PRIMARY_KV

    primary = [b for b in net.buses if b.kind is BusKind.PQ and b.base_kv == PRIMARY_KV]
    grid = [b for b in net.buses if b.base_kv == SECONDARY_KV]
    assert len(primary) == 4
    assert len(grid) == 16
    assert len(net.transformers) == 4

    primary_ids = {b.id for b in primary}
    grid_ids = {b.id for b in grid}
    for tr in net.transformers:
        assert tr.primary_bus in primary_ids
        assert tr.secondary_bus in grid_ids
        assert tr.x > 0

    loaded = [b.id for b in net.buses if b.p_load > 0]
    assert len(loaded) == 12
    assert set(loaded) <= grid_ids

    assert len(net.dgs) == 6
    for dg in net.dgs:
        assert dg.bus in set(loaded)
        assert dg.p_surplus > 0 and dg.q_surplus > 0
        assert dg.online


def test_same_seed_is_identical():
    spec = SynthSpec(seed=7)
    assert generate_synthetic_network(spec) == generate_synthetic_network(spec)


def test_different_seed_differs():
    a = generate_synthetic_network(SynthSpec(seed=1))
    b = generate_synthetic_network(SynthSpec(seed=2))
    assert a != b


def test_too_many_dgs_rejected():
    with pytest.raises(ValueError):
        SynthSpec(n_loads=4, n_dgs=5)


def test_too_many_loads_rejected():
    with pytest.raises(ValueError):
        SynthSpec(grid_rows=2, grid_cols=2, n_loads=5, n_dgs=1)


def test_transformers_fewer_than_feeders_rejected():
    with pytest.raises(ValueError):
        SynthSpec(n_feeders=3, n_transformers=2)


def test_negative_seed_rejected_by_name():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        SynthSpec(seed=-1)


def test_default_network_solves():
    net = generate_synthetic_network(SynthSpec())
    sol = solve_power_flow(net)
    assert sol.converged
    assert sol.v_mag.min() > 0.9
    assert sol.v_mag.max() <= 1.0 + 1e-9


def test_grid_is_four_neighbor_lattice():
    spec = SynthSpec(grid_rows=3, grid_cols=5, n_loads=6, n_dgs=2, seed=3)
    net = generate_synthetic_network(spec)
    grid_ids = sorted(b.id for b in net.buses if b.base_kv == SECONDARY_KV)
    assert len(grid_ids) == 15
    base = grid_ids[0]
    index = {bid: (i // 5, i % 5) for i, bid in enumerate(grid_ids)}
    lattice_edges = 0
    for br in net.branches:
        if br.from_bus in index and br.to_bus in index:
            ra, ca = index[br.from_bus]
            rb, cb = index[br.to_bus]
            assert abs(ra - rb) + abs(ca - cb) == 1
            lattice_edges += 1
    assert lattice_edges == 3 * 4 + 2 * 5
    assert grid_ids == list(range(base, base + 15))
