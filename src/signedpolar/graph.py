"""Signed-graph core: sparse storage, degree/volume accounting, edge-class
counts, the polarization ratio, Rayleigh quotients, and seed vectors.

Every edge "count" here is a sum of absolute weights, so weighted graphs are
supported throughout; an unweighted graph is the all-weights-one special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

Label = Hashable

SEED_NORM_TOL = 1e-10


class GraphError(ValueError):
    """Malformed graph input or an invalid node-set argument."""


class SignedGraph:
    """Immutable sparse undirected signed graph with cached degrees.

    Nodes are dense indices ``0..n-1``; ``labels[i]`` maps an index back to
    its external label. Duplicate undirected input pairs are merged by
    summing weights at build time, so ``edge_u/edge_v/edge_w`` hold each
    surviving pair exactly once with ``edge_u < edge_v``.

    Instances are never mutated after construction and are safe to share
    across threads.
    """

    __slots__ = (
        "node_count",
        "labels",
        "label_index",
        "edge_u",
        "edge_v",
        "edge_w",
        "adjacency",
        "degrees",
        "pos_degrees",
        "neg_degrees",
        "total_volume",
        "_cache",
    )

    def __init__(self, labels, edge_u, edge_v, edge_w):
        self.labels = tuple(labels)
        self.node_count = len(self.labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.edge_u = np.asarray(edge_u, dtype=np.int64)
        self.edge_v = np.asarray(edge_v, dtype=np.int64)
        self.edge_w = np.asarray(edge_w, dtype=np.float64)
        n = self.node_count
        row = np.concatenate([self.edge_u, self.edge_v])
        col = np.concatenate([self.edge_v, self.edge_u])
        dat = np.concatenate([self.edge_w, self.edge_w])
        self.adjacency = sp.csr_matrix((dat, (row, col)), shape=(n, n))
        absw = np.abs(self.edge_w)
        self.degrees = np.zeros(n)
        np.add.at(self.degrees, self.edge_u, absw)
        np.add.at(self.degrees, self.edge_v, absw)
        posw = np.where(self.edge_w > 0, self.edge_w, 0.0)
        self.pos_degrees = np.zeros(n)
        np.add.at(self.pos_degrees, self.edge_u, posw)
        np.add.at(self.pos_degrees, self.edge_v, posw)
        self.neg_degrees = self.degrees - self.pos_degrees
        self.total_volume = float(self.degrees.sum())
        self._cache = {}

    @property
    def edge_count(self) -> int:
        return self.edge_w.shape[0]

    def index_of(self, label) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise GraphError(f"unknown node label: {label!r}") from None

    def volume(self, nodes: Iterable[int]) -> float:
        return float(self.degrees[_node_indices(self, nodes)].sum())

    def is_connected(self) -> bool:
        if "connected" not in self._cache:
            if self.node_count == 0:
                self._cache["connected"] = False
            else:
                ncomp, _ = connected_components(self.adjacency, directed=False)
                self._cache["connected"] = ncomp == 1
        return self._cache["connected"]


def _node_indices(g: SignedGraph, nodes: Iterable[int]) -> np.ndarray:
    """Validate a collection of node indices against ``g``; return them
    sorted and without repeats (by sorting: ``np.unique`` is slower here)."""
    if isinstance(nodes, np.ndarray):
        idx = nodes.astype(np.int64)
    else:
        idx = np.fromiter(nodes, dtype=np.int64)
    idx.sort()
    if not idx.size:
        return idx
    if idx[0] < 0 or idx[-1] >= g.node_count:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise GraphError(f"node index {bad} out of range [0, {g.node_count})")
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))]


def as_node_set(g: SignedGraph, nodes: Iterable[int]) -> frozenset[int]:
    """Validate a collection of node indices against ``g`` and freeze it."""
    return frozenset(_node_indices(g, nodes).tolist())


@dataclass(frozen=True)
class EdgeCounts:
    """Absolute-weight totals of the edge classes induced by (c1, c2).

    ``boundary`` covers edges of either sign leaving the union; the remaining
    fields partition edges with both endpoints inside the union. For an
    unweighted graph all fields are integers.
    """

    pos_across: float
    neg_in_1: float
    neg_in_2: float
    boundary: float
    pos_in_1: float
    pos_in_2: float
    neg_across: float


@dataclass(frozen=True)
class Community:
    """A disjoint pair of node bands with its polarization score.

    ``beta`` is the signed bipartiteness ratio: the weight of edges that
    contradict a polarized structure (positive across the bands, negative
    inside a band, plus all boundary edges), normalized by the volume of the
    union. Lower is more polarized.
    """

    c1: tuple[int, ...]
    c2: tuple[int, ...]
    beta: float
    counts: EdgeCounts
    volume: float

    @property
    def size(self) -> int:
        return len(self.c1) + len(self.c2)

    def labels(self, g: SignedGraph) -> tuple[list, list]:
        return ([g.labels[i] for i in self.c1], [g.labels[i] for i in self.c2])


@dataclass(frozen=True)
class SeedVector:
    """Degree-normalized signed indicator of the two seed sets.

    Entries are ``+1/sqrt(vol(S))`` on the first set, ``-1/sqrt(vol(S))`` on
    the second, zero elsewhere, which makes ``values @ (deg * values) == 1``.
    """

    values: np.ndarray
    support: tuple[int, ...]


def build_graph(edges: Iterable[tuple[Label, Label, float]]) -> SignedGraph:
    """Build an immutable dense-indexed graph from a labeled edge list.

    Duplicate undirected pairs are merged by summing their weights; a pair
    whose merged weight is exactly zero is dropped. Self-loops and zero
    input weights are rejected.
    """
    labels: list[Label] = []
    index: dict[Label, int] = {}
    merged: dict[tuple[int, int], float] = {}

    def intern(lab: Label) -> int:
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
        return index[lab]

    count = 0
    for a, b, w in edges:
        count += 1
        w = float(w)
        if a == b:
            raise GraphError(f"self-loop on node {a!r}")
        if w == 0.0 or not np.isfinite(w):
            raise GraphError(f"edge ({a!r}, {b!r}) has invalid weight {w}")
        i, j = intern(a), intern(b)
        key = (i, j) if i < j else (j, i)
        merged[key] = merged.get(key, 0.0) + w
    if count == 0:
        raise GraphError("empty edge list")

    eu, ev, ew = [], [], []
    for (i, j), w in merged.items():
        if w == 0.0:
            continue
        eu.append(i)
        ev.append(j)
        ew.append(w)
    if not eu:
        raise GraphError("all edges cancelled during merging")
    return SignedGraph(labels, eu, ev, ew)


def _membership(g: SignedGraph, c1, c2) -> np.ndarray:
    c1 = _node_indices(g, c1)
    c2 = _node_indices(g, c2)
    side = np.zeros(g.node_count, dtype=np.int8)
    side[c1] = 1
    both = c2[side[c2] == 1]
    if both.size:
        raise GraphError(f"bands overlap on nodes {both.tolist()}")
    side[c2] = -1
    return side


def edge_counts(g: SignedGraph, c1, c2) -> EdgeCounts:
    """Classify every edge incident to ``c1 | c2`` in one pass.

    Each incident edge lands in exactly one field, so the seven fields sum to
    the total absolute weight incident to the union.
    """
    side = _membership(g, c1, c2)
    su = side[g.edge_u]
    sv = side[g.edge_v]
    w = g.edge_w
    aw = np.abs(w)
    pos = w > 0
    prod = su.astype(np.int16) * sv
    inside_u = su != 0
    inside_v = sv != 0

    across = prod == -1
    same1 = (su == 1) & (sv == 1)
    same2 = (su == -1) & (sv == -1)
    bound = inside_u != inside_v

    return EdgeCounts(
        pos_across=float(w[pos & across].sum()),
        neg_in_1=float(aw[~pos & same1].sum()),
        neg_in_2=float(aw[~pos & same2].sum()),
        boundary=float(aw[bound].sum()),
        pos_in_1=float(w[pos & same1].sum()),
        pos_in_2=float(w[pos & same2].sum()),
        neg_across=float(aw[~pos & across].sum()),
    )


def beta(g: SignedGraph, c1, c2) -> float:
    """Signed bipartiteness ratio of the band pair (lower = more polarized)."""
    return community(g, c1, c2).beta


def community(g: SignedGraph, c1, c2) -> Community:
    """Assemble a :class:`Community` with its counts, volume, and ratio."""
    c1 = _node_indices(g, c1)
    c2 = _node_indices(g, c2)
    counts = edge_counts(g, c1, c2)
    union = np.sort(np.concatenate((c1, c2)))  # disjoint: edge_counts checked
    if not union.size:
        raise GraphError("both bands are empty")
    vol = float(g.degrees[union].sum())
    num = 2.0 * counts.pos_across + counts.neg_in_1 + counts.neg_in_2 + counts.boundary
    return Community(
        c1=tuple(c1.tolist()),
        c2=tuple(c2.tolist()),
        beta=num / vol,
        counts=counts,
        volume=vol,
    )


def rayleigh_quotient(g: SignedGraph, x: np.ndarray) -> float:
    """Quadratic-form ratio x'Lx / x'Dx, computed in one edge pass.

    The numerator penalizes disagreement across positive edges and agreement
    across negative edges:
    ``sum_pos w (x_u - x_v)^2 + sum_neg |w| (x_u + x_v)^2``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.node_count,):
        raise GraphError(f"vector length {x.shape} does not match n={g.node_count}")
    denom = float(g.degrees @ (x * x))
    if denom == 0.0:
        raise GraphError("Rayleigh quotient of the zero vector")
    xu = x[g.edge_u]
    xv = x[g.edge_v]
    w = g.edge_w
    pos = w > 0
    num = float((w[pos] * (xu[pos] - xv[pos]) ** 2).sum())
    num += float((-w[~pos] * (xu[~pos] + xv[~pos]) ** 2).sum())
    return num / denom


def seed_vector(g: SignedGraph, s1, s2) -> SeedVector:
    """Degree-normalized seed indicator for two disjoint query sets.

    One of the two sets may be empty; the union must not be.
    """
    s1 = as_node_set(g, s1)
    s2 = as_node_set(g, s2)
    if s1 & s2:
        raise GraphError(f"seed sets overlap on nodes {sorted(s1 & s2)}")
    union = s1 | s2
    if not union:
        raise GraphError("both seed sets are empty")
    vol = float(g.degrees[sorted(union)].sum())
    values = np.zeros(g.node_count)
    scale = 1.0 / np.sqrt(vol)
    if s1:
        values[sorted(s1)] = scale
    if s2:
        values[sorted(s2)] = -scale
    norm = float(g.degrees @ (values * values))
    assert abs(norm - 1.0) <= SEED_NORM_TOL
    return SeedVector(values=values, support=tuple(sorted(union)))


def indicator_vector(g: SignedGraph, c1, c2) -> np.ndarray:
    """The +1/-1/0 vector form of a band pair."""
    return _membership(g, c1, c2).astype(np.float64)


def largest_component(g: SignedGraph) -> tuple[SignedGraph, int, int]:
    """Restrict ``g`` to its largest connected component.

    Components are compared by volume (tie broken toward the component
    containing the smallest node index). Returns the subgraph together with
    the dropped node and edge counts; a connected graph is returned as-is.
    """
    ncomp, comp = connected_components(g.adjacency, directed=False)
    if ncomp <= 1:
        return g, 0, 0
    vols = np.zeros(ncomp)
    np.add.at(vols, comp, g.degrees)
    best = int(np.argmax(vols))
    keep_mask = comp == best
    keep_edges = keep_mask[g.edge_u]
    labels = [g.labels[i] for i in range(g.node_count) if keep_mask[i]]
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[keep_mask] = np.arange(keep_mask.sum())
    sub = SignedGraph(
        labels,
        remap[g.edge_u[keep_edges]],
        remap[g.edge_v[keep_edges]],
        g.edge_w[keep_edges],
    )
    return sub, int(g.node_count - sub.node_count), int(g.edge_count - sub.edge_count)
