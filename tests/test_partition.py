import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcomm.partition import (
    MergeStep,
    Partition,
    PeakPolicy,
    WeightedGraph,
    build_dg_adjacency,
    combine_weights,
    greedy_partition,
    modularity,
    partition_network,
)
from gridcomm.powerflow import solve_power_flow
from gridcomm.sensitivity import SensitivityMode, compute_sensitivity_matrix, dg_columns

from conftest import barbell8, brute_force_best_modularity, k4, random_graph, two_triangles


def graph(weights):
    return WeightedGraph.from_weights(weights)


def blocks_of(p):
    return frozenset(frozenset(p.members(c)) for c in range(p.n_communities))


def make_partition(labels):
    return Partition(
        community_of=dict(enumerate(labels)),
        n_communities=len(set(labels)),
        modularity=0.0,
    )


# ---------------------------------------------------------------- graph


def test_from_weights_rejects_bad_input():
    with pytest.raises(ValueError):
        WeightedGraph.from_weights(np.ones((2, 3)))
    with pytest.raises(ValueError):
        WeightedGraph.from_weights(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph.from_weights(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph.from_weights(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph.from_weights(np.zeros((3, 3)))


def test_degrees_and_total():
    g = graph(two_triangles())
    assert g.total_weight == pytest.approx(12.0)
    assert np.allclose(g.degrees, 2.0)


# ---------------------------------------------------------------- adjacency


def test_dg_adjacency_argmax_row():
    d = build_dg_adjacency(np.array([[0.1, 0.3, 0.2]]))
    np.testing.assert_array_equal(d, [[0.0, 1.0, 0.0]])


def test_dg_adjacency_tie_breaks_low():
    d = build_dg_adjacency(np.array([[0.2, 0.2]]))
    np.testing.assert_array_equal(d, [[1.0, 0.0]])


def test_dg_adjacency_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        build_dg_adjacency(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        build_dg_adjacency(np.array([[np.nan, np.nan]]))


def test_dg_adjacency_matches_argmax_scan(net6):
    sol = solve_power_flow(net6, tolerance=1e-12)
    sens = compute_sensitivity_matrix(net6, sol)
    cols = dg_columns(sens, net6, online_only=True)
    d = build_dg_adjacency(cols.matrix)
    for i in range(cols.matrix.shape[0]):
        row = cols.matrix[i]
        expect = min(j for j in range(len(row)) if row[j] == row.max())
        assert d[i].sum() == 1.0
        assert d[i, expect] == 1.0


# ---------------------------------------------------------------- combine


def test_combine_no_boost_is_identity():
    a = np.array([[0.0, 0.3, 0.1], [0.3, 0.0, 0.2], [0.1, 0.2, 0.0]])
    d = np.zeros((3, 1))
    g = combine_weights(a, d, [0])
    np.testing.assert_allclose(g.weights, a)


def test_combine_hand_case():
    a = np.array([[0.0, 0.2], [0.2, 0.0]])
    d = np.array([[1.0], [1.0]])
    g = combine_weights(a, d, [1])
    assert g.weights[0, 1] == pytest.approx(0.7, abs=1e-15)
    assert g.weights[1, 0] == pytest.approx(0.7, abs=1e-15)
    assert g.weights[0, 0] == 0.0 and g.weights[1, 1] == 0.0


def test_combine_clamps_negative_sensitivity():
    a = np.array([[0.0, -0.05], [-0.05, 0.0]])
    d = np.array([[1.0], [1.0]])
    g = combine_weights(a, d, [1])
    assert g.weights[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_combine_dimension_mismatch():
    with pytest.raises(ValueError):
        combine_weights(np.zeros((3, 3)), np.zeros((2, 1)), [0])
    with pytest.raises(ValueError):
        combine_weights(np.eye(2), np.ones((2, 1)), [0, 1])
    with pytest.raises(ValueError):
        combine_weights(np.eye(2), np.ones((2, 1)), [5])


# ---------------------------------------------------------------- modularity


def test_all_in_one_is_zero():
    for w in (two_triangles(), k4(), barbell8()):
        g = graph(w)
        p = make_partition([0] * g.n_nodes)
        assert modularity(g, p) == pytest.approx(0.0, abs=1e-12)


def test_two_triangles_split_value():
    g = graph(two_triangles())
    p = make_partition([0, 0, 0, 1, 1, 1])
    assert modularity(g, p) == pytest.approx(0.5, abs=1e-12)


def test_singleton_triangle_negative():
    tri = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    g = graph(tri)
    p = make_partition([0, 1, 2])
    assert modularity(g, p) < 0


# ---------------------------------------------------------------- greedy


def test_greedy_two_triangles():
    g = graph(two_triangles())
    p, dendro = greedy_partition(g)
    assert p.n_communities == 2
    assert blocks_of(p) == frozenset({frozenset({0, 1, 2}), frozenset({3, 4, 5})})
    assert p.modularity == pytest.approx(0.5, abs=1e-12)
    best, blocks = brute_force_best_modularity(g.weights)
    assert p.modularity == pytest.approx(best, abs=1e-12)
    assert blocks_of(p) == blocks


def test_greedy_k4_merges_to_one():
    g = graph(k4())
    p, _ = greedy_partition(g)
    assert p.n_communities == 1
    assert p.modularity == pytest.approx(0.0, abs=1e-12)
    best, _ = brute_force_best_modularity(g.weights)
    assert best == pytest.approx(0.0, abs=1e-12)


def test_greedy_barbell_splits_at_bridge():
    g = graph(barbell8())
    p, _ = greedy_partition(g)
    assert blocks_of(p) == frozenset({frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})})
    best, blocks = brute_force_best_modularity(g.weights)
    assert p.modularity == pytest.approx(best, abs=1e-12)
    assert blocks_of(p) == blocks


def test_greedy_reported_modularity_self_consistent():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = graph(random_graph(rng, 7, density=0.6))
        p, dendro = greedy_partition(g)
        assert p.modularity == pytest.approx(modularity(g, p), abs=1e-12)
        trace = dendro.modularity_trace()
        assert trace[dendro.best_step] == pytest.approx(p.modularity, abs=1e-12)
        assert len(trace) == g.n_nodes


def test_greedy_each_merge_is_best_available():
    rng = np.random.default_rng(3)
    g = graph(random_graph(rng, 8, density=0.7))
    _, dendro = greedy_partition(g)

    # Replay the dendrogram and, at every step, score the chosen merge
    # against every alternative with the plain modularity evaluator.
    label_of = {i: i for i in range(g.n_nodes)}

    def scored(trial):
        roots = sorted(set(trial.values()))
        rank = {r: c for c, r in enumerate(roots)}
        return modularity(g, make_partition([rank[trial[i]] for i in range(g.n_nodes)]))

    for step in dendro.steps:
        current = sorted({label_of[i] for i in range(g.n_nodes)})
        scores = {}
        for ai, a in enumerate(current):
            for b in current[ai + 1 :]:
                trial = {i: (a if label_of[i] == b else label_of[i]) for i in label_of}
                scores[(a, b)] = scored(trial)
        chosen = (step.community_a, step.community_b)
        assert scores[chosen] >= max(scores.values()) - 1e-12
        assert scores[chosen] == pytest.approx(step.modularity_after, abs=1e-12)
        for i in label_of:
            if label_of[i] == step.community_b:
                label_of[i] = step.community_a


def test_greedy_near_optimal_on_random_small_graphs():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = graph(random_graph(rng, 6, density=0.5))
        p, _ = greedy_partition(g)
        best, _ = brute_force_best_modularity(g.weights)
        if best > 0:
            assert p.modularity >= 0.95 * best
        else:
            assert p.modularity >= best - 1e-12


def test_relabel_equivariance():
    rng = np.random.default_rng(17)
    w = random_graph(rng, 7, density=0.6)
    g = graph(w)
    perm = rng.permutation(7)
    permuted = graph(w[np.ix_(perm, perm)])

    p, _ = greedy_partition(g)
    q, _ = greedy_partition(permuted)
    assert q.modularity == pytest.approx(p.modularity, abs=1e-12)
    # Node i of the permuted graph is node perm[i] of the original.
    mapped = frozenset(
        frozenset(int(perm[i]) for i in q.members(c)) for c in range(q.n_communities)
    )
    assert mapped == blocks_of(p)


def reference_greedy(g, peak):
    """The original O(n^3) agglomeration: rescan every live pair in
    ascending (a, b) order on every merge, keep the first strict maximum.
    Returns the merge steps, the chosen step, the assignment and its
    modularity."""
    n = g.n_nodes
    two_m = g.total_weight
    w_com = g.weights.copy()
    deg = g.degrees.copy()
    active = list(range(n))
    m_now = float(-(np.sum((deg / two_m) ** 2)))
    trace = [m_now]
    steps = []
    for step in range(1, n):
        best, best_gain = None, -np.inf
        for ai in range(len(active)):
            a = active[ai]
            for bi in range(ai + 1, len(active)):
                b = active[bi]
                gain = 2.0 * (w_com[a, b] / two_m - (deg[a] / two_m) * (deg[b] / two_m))
                if gain > best_gain:
                    best_gain, best = gain, (a, b)
        a, b = best
        w_com[a, :] += w_com[b, :]
        w_com[:, a] += w_com[:, b]
        w_com[b, :] = 0.0
        w_com[:, b] = 0.0
        deg[a] += deg[b]
        deg[b] = 0.0
        active.remove(b)
        m_now += float(best_gain)
        trace.append(m_now)
        steps.append(MergeStep(step=step, community_a=a, community_b=b, modularity_after=m_now))

    if peak is PeakPolicy.GLOBAL:
        best_step = int(np.argmax(trace))
    else:
        best_step = next((s for s in range(n - 1) if trace[s + 1] < trace[s]), n - 1)
    label = list(range(n))
    for merge in steps[:best_step]:
        label = [merge.community_a if x == merge.community_b else x for x in label]
    rank = {r: c for c, r in enumerate(sorted(set(label)))}
    p = make_partition([rank[x] for x in label])
    return steps, best_step, p.community_of, modularity(g, p)


@st.composite
def tied_weights(draw):
    """Symmetric small-integer weights on 2..40 nodes with many equal gains:
    k copies of one random motif joined in a ring, in a drawn node order."""
    m = draw(st.integers(1, 40))
    k = draw(st.integers(2 if m == 1 else 1, 40 // m))
    upper = draw(st.lists(st.integers(0, 3), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2))
    motif = np.zeros((m, m))
    motif[np.triu_indices(m, 1)] = upper
    w = np.kron(np.eye(k), motif + motif.T)
    link = draw(st.integers(1, 3))
    for i in range(k if k > 2 else k - 1):
        j = (i + 1) % k
        w[i * m, j * m] = w[j * m, i * m] = link
    order = draw(st.permutations(range(m * k)))
    w = w[np.ix_(order, order)]
    if w.sum() == 0:
        w[0, 1] = w[1, 0] = 1.0
    return w


@settings(max_examples=150, deadline=None)
@given(tied_weights(), st.sampled_from(list(PeakPolicy)))
def test_greedy_matches_reference_scan_exactly(w, peak):
    g = graph(w)
    p, dendro = greedy_partition(g, peak=peak)
    steps, best_step, community_of, mod = reference_greedy(g, peak)
    assert dendro.steps == steps
    assert dendro.best_step == best_step
    assert p.community_of == community_of
    assert p.modularity == mod


def test_greedy_matches_reference_scan_on_skewed_weights():
    # from_weights accepts up to 1e-12 of asymmetry; the reference reads the
    # upper triangle, so the greedy must too.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        w = random_graph(rng, n, density=0.8)
        w += np.triu(rng.random((n, n)) * 1e-13, 1)
        g = graph(w)
        p, dendro = greedy_partition(g)
        steps, best_step, community_of, _ = reference_greedy(g, PeakPolicy.GLOBAL)
        assert (dendro.steps, dendro.best_step, p.community_of) == (steps, best_step, community_of)


def test_merged_gain_tying_an_older_best_takes_the_lower_partner():
    # Merging 1 and 2 first gives node 0 the gain to {1, 2} that it already
    # had to 3 (same weight 2, same degree 12), bit for bit. The tie goes to
    # the lower pair (0, 1), which a row that kept its old partner 3 misses.
    w = np.zeros((15, 15))
    for i, j, x in [(1, 2, 5), (0, 1, 1), (0, 2, 1), (0, 3, 2)] + [(3, k, 1) for k in range(5, 15)]:
        w[i, j] = w[j, i] = x
    g = graph(w)
    _, dendro = greedy_partition(g)
    assert [(s.community_a, s.community_b) for s in dendro.steps[:2]] == [(1, 2), (0, 1)]
    assert dendro.steps == reference_greedy(g, PeakPolicy.GLOBAL)[0]


def test_peak_policies_agree_on_clean_split():
    g = graph(two_triangles())
    p_global, _ = greedy_partition(g, peak=PeakPolicy.GLOBAL)
    p_local, _ = greedy_partition(g, peak=PeakPolicy.FIRST_LOCAL)
    assert blocks_of(p_global) == blocks_of(p_local)


# ---------------------------------------------------------------- network level


def solved_sens(net):
    sol = solve_power_flow(net, tolerance=1e-12)
    return compute_sensitivity_matrix(net, sol)


def test_net6_two_communities_each_with_its_dg(net6):
    sens = solved_sens(net6)
    p, dendro = partition_network(net6, sens)
    assert p.n_communities == 2
    comms = {p.community_of[dg.bus] for dg in net6.dgs}
    assert len(comms) == 2

    # The graph-level split must match the exhaustive modularity oracle on
    # the combined non-slack graph.
    dgc = dg_columns(sens, net6, online_only=True)
    d = build_dg_adjacency(dgc.matrix)
    idx = [sens.row_of(net6.dg_by_id(i).bus) for i in dgc.dg_ids]
    g = combine_weights(sens.voltage_block(SensitivityMode.VQ), d, idx)
    best, blocks = brute_force_best_modularity(g.weights)
    assert p.modularity == pytest.approx(best, abs=1e-12)
    node_blocks = frozenset(
        frozenset(sens.row_of(b) for b in p.members(c) if b in sens.bus_ids)
        for c in range(p.n_communities)
    )
    assert node_blocks == blocks


def test_net6_every_bus_assigned(net6):
    p, _ = partition_network(net6, solved_sens(net6))
    assert sorted(p.community_of) == [b.id for b in net6.buses]
    assert set(p.community_of.values()) == set(range(p.n_communities))


def test_slack_joins_lowest_id_neighbor(net6):
    p, _ = partition_network(net6, solved_sens(net6))
    assert p.community_of[0] == p.community_of[1]


def test_single_dg_degenerates_to_one_community(net6):
    net6.dgs = [d for d in net6.dgs if d.id == 1]
    p, _ = partition_network(net6, solved_sens(net6))
    assert p.n_communities == 1
    assert set(p.community_of.values()) == {0}


def test_no_online_dgs_rejected(net6):
    for d in net6.dgs:
        d.online = False
    with pytest.raises(ValueError):
        partition_network(net6, solved_sens(net6))
