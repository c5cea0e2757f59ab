"""Sensitivity-weighted modularity partitioning of the network into
DG-centric communities.

The pipeline: solve for one mode's voltage-sensitivity block, mark each
node's strongest DG column in a 0/1 adjacency matrix, fold that boost into
the node-node sensitivity weights, then greedily agglomerate communities to
the modularity peak. Weighted modularity generalizes the edge-count form:
the normalizer is the total weight and degrees are weighted degrees, which
reduces to the unweighted formula on 0/1 graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .network import NetworkModel, adjacency
from .sensitivity import SensitivityMatrix, SensitivityMode, dg_buses

_SYM_TOL = 1e-12


@dataclass
class WeightedGraph:
    n_nodes: int
    weights: np.ndarray
    total_weight: float  # sum over ordered pairs, the "2m" normalizer
    degrees: np.ndarray

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "WeightedGraph":
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        if np.min(w) < 0:
            raise ValueError("weights must be nonnegative")
        if np.max(np.abs(w - w.T)) > _SYM_TOL:
            raise ValueError("weights must be symmetric")
        total = float(w.sum())
        if total <= 0:
            raise ValueError("graph has zero total weight")
        return cls(n_nodes=w.shape[0], weights=w, total_weight=total, degrees=w.sum(axis=1))


@dataclass
class Partition:
    """Node-to-community assignment; community ids contiguous from 0.

    Keys of community_of are graph node indices for graph-level operations
    and bus ids when produced by partition_network.
    """

    community_of: dict[int, int]
    n_communities: int
    modularity: float

    def members(self, community: int) -> list[int]:
        return sorted(k for k, c in self.community_of.items() if c == community)

    def check_covers(self, bus_ids: Sequence[int]) -> None:
        """Raise ValueError naming the first bus, id ascending, that this
        partition leaves out, that bus_ids lacks, or that it puts outside
        its communities 0 to n_communities - 1."""
        ids = set(bus_ids)
        for b in sorted(ids | self.community_of.keys()):
            if b not in self.community_of:
                raise ValueError(f"the partition puts bus {b} in no community")
            if b not in ids:
                raise ValueError(f"the partition names bus {b}, which the network does not have")
            if self.community_of[b] not in range(self.n_communities):
                raise ValueError(
                    f"the partition puts bus {b} in community {self.community_of[b]}, "
                    f"not one of its {self.n_communities}"
                )


@dataclass
class MergeStep:
    community_a: int
    community_b: int
    modularity_after: float


@dataclass
class Dendrogram:
    initial_modularity: float
    steps: list[MergeStep] = field(default_factory=list)
    best_step: int = 0

    def modularity_trace(self) -> list[float]:
        """Modularity of every agglomeration state, singletons first."""
        return [self.initial_modularity] + [s.modularity_after for s in self.steps]


def build_dg_adjacency(dg_cols: np.ndarray) -> np.ndarray:
    """0/1 matrix marking each node's highest-sensitivity DG.

    Ties break to the lowest DG id (columns are id-ascending). A row with no
    finite entry has no meaningful argmax and raises.
    """
    m = np.asarray(dg_cols, dtype=float)
    if m.ndim != 2 or m.shape[1] == 0:
        raise ValueError("dg_cols must be a nonempty 2-D matrix")
    finite = np.isfinite(m)
    empty = np.flatnonzero(~finite.any(axis=1))
    if empty.size:
        raise ValueError(f"row {empty[0]} has no finite sensitivity entry")
    out = np.zeros_like(m)
    out[np.arange(m.shape[0]), np.where(finite, m, -np.inf).argmax(axis=1)] = 1.0
    return out


def combine_weights(
    sens_block: np.ndarray, d: np.ndarray, dg_node_index: Sequence[int]
) -> WeightedGraph:
    """Fold the DG adjacency boost into the node-node sensitivity weights.

    Negative sensitivities are clamped to zero, +1 is added at
    (node, node-of-DG) wherever the adjacency marks a nearest DG, the result
    is symmetrized as (W + W.T)/2 and the diagonal zeroed.
    """
    a = np.asarray(sens_block, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.shape[0] != a.shape[1] or d.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: sensitivity {a.shape}, adjacency {d.shape}")
    if d.shape[1] != len(dg_node_index):
        raise ValueError("dg_node_index length must match adjacency columns")
    w = np.clip(a, 0.0, None)
    for j, node in enumerate(dg_node_index):
        if not 0 <= node < a.shape[0]:
            raise ValueError(f"DG column {j} maps to node {node} outside the graph")
        w[:, node] += d[:, j]
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return WeightedGraph.from_weights(w)


def modularity(g: WeightedGraph, p: Partition) -> float:
    """Quality of a partition: intra-community weight against the
    degree-product null model, summed over ordered node pairs."""
    two_m = g.total_weight
    labels = np.array([p.community_of[i] for i in range(g.n_nodes)], dtype=int)
    m_val = 0.0
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        w_in = float(g.weights[np.ix_(idx, idx)].sum())
        k_in = float(g.degrees[idx].sum())
        m_val += w_in / two_m - (k_in / two_m) ** 2
    return m_val


def greedy_partition(g: WeightedGraph) -> tuple[Partition, Dendrogram]:
    """Agglomerate from singletons, always merging the pair with the largest
    modularity gain; return the dendrogram state at the modularity peak.

    Communities are named by their smallest member node. The gains of all
    live pairs (a, b), a < b, sit in an upper-triangular matrix, and each
    row keeps its best gain and the lowest column reaching it, after Clauset,
    Newman & Moore (2004) with one flat argmax array in place of their
    heaps. A merge of b into a rewrites row and column a, retires b, and
    rescans only the rows whose best partner was a or b (row a among them);
    every other row just compares its new gain against a. That makes
    the whole run O(n^2). Equal gains resolve to the lexicographically
    lowest pair, as a full scan in ascending (a, b) order would.
    Deterministic throughout. The cut is the first maximum of the trace,
    the only peak: a merged pair's gain to c is the sum of its parts' gains
    (CNM eq. 10), so once the best gain is not positive, no later gain is.
    """
    n = g.n_nodes
    two_m = g.total_weight
    w_com = g.weights.copy()
    deg = g.degrees.copy()
    share = deg / two_m
    alive = np.ones(n, dtype=bool)

    # Filled row by row: a whole-matrix expression would hold two more n x n
    # temporaries, which raised the peak RSS of repeated partition calls.
    gain = np.full((n, n), -np.inf)
    for i in range(n - 1):
        gain[i, i + 1 :] = 2.0 * (w_com[i, i + 1 :] / two_m - share[i] * share[i + 1 :])
    best_col = gain.argmax(axis=1)
    best_val = gain[np.arange(n), best_col]

    m_now = float(-(np.sum(share**2)))
    dendro = Dendrogram(initial_modularity=m_now)

    for _ in range(n - 1):
        a = int(np.argmax(best_val))
        b = int(best_col[a])
        m_now += float(best_val[a])
        w_com[a, :] += w_com[b, :]
        w_com[:, a] += w_com[:, b]
        deg[a] += deg[b]
        share[a] = deg[a] / two_m
        alive[b] = False
        dendro.steps.append(MergeStep(community_a=a, community_b=b, modularity_after=m_now))

        # Pair (c, a) reads w_com[c, a] and pair (a, c) reads w_com[a, c], as
        # the upper triangle does everywhere (from_weights allows 1e-12 skew).
        pair_w = w_com[a].copy()
        pair_w[:a] = w_com[:a, a]
        row = 2.0 * (pair_w / two_m - share[a] * share)
        row[~alive] = -np.inf
        row[a] = -np.inf
        gain[a, a + 1 :] = row[a + 1 :]
        gain[:a, a] = row[:a]
        gain[:, b] = -np.inf
        best_val[b] = -np.inf

        stale = alive & ((best_col == a) | (best_col == b))
        col = row[:a]
        take = (col > best_val[:a]) | ((col == best_val[:a]) & (a < best_col[:a]))
        best_val[:a][take] = col[take]
        best_col[:a][take] = a
        rescan = np.flatnonzero(stale)
        best_col[rescan] = gain[rescan].argmax(axis=1)
        best_val[rescan] = gain[rescan, best_col[rescan]]

    dendro.best_step = int(np.argmax(dendro.modularity_trace()))
    partition = _partition_at(n, dendro.steps, dendro.best_step)
    partition.modularity = modularity(g, partition)
    return partition, dendro


def _partition_at(n: int, steps: list[MergeStep], step: int) -> Partition:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for merge in steps[:step]:
        parent[find(merge.community_b)] = find(merge.community_a)
    roots = sorted({find(i) for i in range(n)})
    label = {r: c for c, r in enumerate(roots)}
    community_of = {i: label[find(i)] for i in range(n)}
    return Partition(community_of=community_of, n_communities=len(roots), modularity=0.0)


def partition_network(
    net: NetworkModel,
    sens: SensitivityMatrix,
    mode: SensitivityMode = SensitivityMode.VQ,
) -> tuple[Partition, Dendrogram]:
    """Partition the whole network into communities around sens.online_dgs.

    The modularity graph covers non-slack buses; the slack bus then joins
    the community of its lowest-id neighbor. Returned community_of is keyed
    by bus id.
    """
    dg_rows = [sens.row[b] for b in dg_buses(sens, sens.online_dgs)]
    if not dg_rows:
        raise ValueError("network has no online DGs to partition around")
    if len(sens.bus_ids) < 2:
        raise ValueError(f"a partition needs at least two non-slack buses, network has {len(sens.bus_ids)}")
    block = sens.voltage_block(mode)
    graph = combine_weights(block, build_dg_adjacency(block[:, dg_rows]), dg_rows)
    node_part, dendro = greedy_partition(graph)

    community_of = {bus_id: node_part.community_of[i] for i, bus_id in enumerate(sens.bus_ids)}
    slack_id = net.slack_bus.id
    near = adjacency(net)[slack_id]
    community_of[slack_id] = community_of[min(near)] if near else 0

    return (
        Partition(
            community_of=community_of,
            n_communities=node_part.n_communities,
            modularity=node_part.modularity,
        ),
        dendro,
    )
