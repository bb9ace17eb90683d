"""Signed-graph core: sparse storage, degree/volume accounting, edge-class
counts, the polarization ratio, Rayleigh quotients, and seed vectors.

Every edge "count" here is a sum of absolute weights, so weighted graphs are
supported throughout; an unweighted graph is the all-weights-one special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

Label = Hashable

SEED_NORM_TOL = 1e-10
# Below this many unfinished runs, _sum_runs sums each run on its own.
_FEW_RUNS = 64


class GraphError(ValueError):
    """Malformed graph input or an invalid node-set argument."""


class SignedGraph:
    """Immutable sparse undirected signed graph with cached degrees.

    Nodes are dense indices ``0..n-1``; ``labels[i]`` maps an index back to
    its external label. The constructor takes each undirected pair exactly
    once with ``edge_u < edge_v`` (:func:`build_graph` merges duplicate
    input pairs by summing weights to get there) and raises
    :class:`GraphError` otherwise. The edges are kept in ``(u, v)`` order;
    pairs given in another order are sorted into it. ``adjacency`` is the
    symmetric CSR matrix with int32 indices (int64 past their range),
    columns sorted in each row, so ``edge_u/edge_v/edge_w`` are its upper
    triangle in CSR order; it is laid out directly from the pairs, without
    a COO stage.

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
        "total_volume",
        "_cache",
    )

    def __init__(self, labels, edge_u, edge_v, edge_w):
        self.labels = tuple(labels)
        self.node_count = n = len(self.labels)
        self.label_index = dict(zip(self.labels, range(n)))
        u = np.asarray(edge_u, dtype=np.int64)
        v = np.asarray(edge_v, dtype=np.int64)
        w = np.asarray(edge_w, dtype=np.float64)
        if not _in_pair_order(u, v):
            u, v, w = u.copy(), v.copy(), w.copy()
            _sort_pairs(u, v, w)
            if not _in_pair_order(u, v):
                raise GraphError("edge pairs must be distinct with edge_u < edge_v")
        self.edge_u, self.edge_v, self.edge_w = u, v, w
        self.adjacency = sp.csr_matrix(_sorted_csr(u, v, w, n), shape=(n, n))
        # bincount adds in index order and add.at goes on from there: all
        # edge_u terms before the edge_v ones
        absw = np.abs(w)
        self.degrees = np.bincount(u, absw, minlength=n)
        np.add.at(self.degrees, v, absw)
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
                self._cache["connected"] = _components(self)[0] == 1
        return self._cache["connected"]


def _sorted_csr(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, indices, indptr)`` of the symmetric matrix with entries
    ``(u, v, w)`` and ``(v, u, w)``, columns sorted within each row, from
    distinct pairs in ``(u, v)`` order with ``u < v``.

    Row ``r`` holds its lower entries (edges with ``v == r``, columns ``u``)
    before its upper ones (``u == r``, columns ``v``). In ``(u, v)`` order
    each row's upper entries are consecutive and in column order, and so are
    its lower entries in ``(v, u)`` order, which one stable sort by ``v``
    gives. Each entry's slot is its rank in its order plus a per-row offset;
    a column is gathered into the sorted order only as it is placed.
    """
    m = len(w)
    idx = np.int32 if max(n, 2 * m) <= np.iinfo(np.int32).max else np.int64
    upper = np.bincount(u, minlength=n)
    lower = np.bincount(v, minlength=n)
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(upper + lower, out=indptr[1:])
    indices = np.empty(2 * m, dtype=idx)
    data = np.empty(2 * m)
    # upper entry of the j-th edge in (u, v) order: slot j + (lower entries
    # of the rows up to u)
    slot = np.cumsum(lower)[u]
    slot += np.arange(m)
    indices[slot] = v
    data[slot] = w
    del slot
    # lower entry of the j-th edge in (v, u) order: slot j + (upper entries
    # of the rows before v)
    sv = v.copy()
    at = _stable_sort(sv)
    slot = (np.cumsum(upper) - upper)[sv]
    del sv
    slot += np.arange(m)
    indices[slot] = u[at]
    data[slot] = w[at]
    return data, indices, indptr


def _stable_sort(key: np.ndarray) -> np.ndarray:
    """Sort the int64 ``key`` in place, stably; returns the permutation
    that sorts it.

    Keys must lie in ``[0, 2**(64 - bits))``, ``bits`` the width of an
    index into ``key``. One ``np.sort`` of uint64 words, each a key above
    its position, is several times faster than a stable argsort, and the
    keys come out of the words without a gather.
    """
    bits = np.uint64(max(1, (len(key) - 1).bit_length()))
    if len(key) and int(key.max()).bit_length() + int(bits) > 64:
        raise GraphError("graph too large to index")
    packed = key.view(np.uint64)
    packed <<= bits
    packed |= np.arange(len(key), dtype=np.uint64)
    packed.sort()
    pos = (packed & ((np.uint64(1) << bits) - np.uint64(1))).view(np.int64)
    packed >>= bits
    return pos


def _in_pair_order(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the pairs ``(u, v)`` strictly increase and each has ``u < v``."""
    ahead = u[1:] > u[:-1]
    ahead |= (u[1:] == u[:-1]) & (v[1:] > v[:-1])
    return bool(ahead.all() and (u < v).all())


def _sort_pairs(lo: np.ndarray, hi: np.ndarray, w: np.ndarray) -> None:
    """Put the rows ``(lo, hi, w)`` in ``(lo, hi)`` order, in place, equal
    pairs in row order: a stable sort by ``hi``, then one by ``lo``. At most
    two arrays beyond the columns exist at once."""
    at = _stable_sort(hi)
    lo[:] = lo[at]
    w[:] = w[at]
    del at
    at = _stable_sort(lo)
    hi[:] = hi[at]
    w[:] = w[at]


def _components(g: SignedGraph) -> tuple[int, np.ndarray]:
    """Number of connected components and each node's component.

    The adjacency is symmetric, so its strong components are the connected
    components, and the directed search needs no transposed copy of it.
    """
    return connected_components(g.adjacency, directed=True, connection="strong")


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


@dataclass(frozen=True, eq=False)
class EdgeList:
    """Labeled edges as columns: row ``i`` joins ``labels[u[i]]`` and
    ``labels[v[i]]`` with weight ``w[i]``.

    Labels must be distinct. A label that no row uses is not a node of the
    graph built from the list. ``len()`` is the number of rows.
    """

    labels: Sequence[Label]
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __len__(self) -> int:
        return len(self.w)

    @classmethod
    def from_tuples(cls, edges: Iterable[tuple[Label, Label, float]]) -> EdgeList:
        """Pack ``(u, v, w)`` tuples, numbering labels by first appearance."""
        rows = list(edges)
        if set(map(len, rows)) - {3}:
            raise GraphError("every edge must be a (u, v, w) triple")
        a, b, w = zip(*rows) if rows else ((), (), ())
        ends = list(chain.from_iterable(zip(a, b)))
        index = dict(zip(dict.fromkeys(ends), range(len(ends))))
        ids = np.fromiter(map(index.__getitem__, ends), np.int64, len(ends))
        weights = np.fromiter(map(float, w), np.float64, len(w))
        return cls(list(index), ids[0::2], ids[1::2], weights)


def build_graph(edges: EdgeList | Iterable[tuple[Label, Label, float]]) -> SignedGraph:
    """Build an immutable dense-indexed graph from a labeled edge list.

    Nodes are numbered in order of first appearance (row by row, ``u``
    before ``v``). Duplicate undirected pairs are merged by summing their
    weights in row order; a pair whose merged weight is exactly zero is
    dropped. The surviving pairs come out in ``(u, v)`` order, the order
    :func:`~signedpolar.io.write_edge_list` writes them in. Self-loops and
    zero or non-finite input weights are rejected, reporting the first
    offending row. The build makes three sorts of the rows: two in the merge
    and one for the adjacency's lower triangle.
    """
    if not isinstance(edges, EdgeList):
        edges = EdgeList.from_tuples(edges)
    # The merge's temporaries, and the edge list unless the caller keeps it,
    # are freed before the graph's arrays are built.
    merged = _merge_edges(edges)
    del edges
    return SignedGraph(*merged)


def _merge_edges(edges: EdgeList) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`build_graph` up to the constructor: labels and merged edges,
    each pair's rows summed in row order, in ``(lo, hi)`` order."""
    u = np.asarray(edges.u, dtype=np.int64)
    v = np.asarray(edges.v, dtype=np.int64)
    w = np.array(edges.w, dtype=np.float64)  # sorted in place below
    m = len(w)
    if u.shape != (m,) or v.shape != (m,):
        raise GraphError("edge columns u, v, w differ in length")
    if m == 0:
        raise GraphError("empty edge list")
    nlab = len(edges.labels)
    if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= nlab:
        raise GraphError(f"edge endpoint index out of range [0, {nlab})")
    bad = (u == v) | (w == 0.0) | ~np.isfinite(w)
    if bad.any():
        i = int(np.argmax(bad))
        a, b = edges.labels[u[i]], edges.labels[v[i]]
        if u[i] == v[i]:
            raise GraphError(f"self-loop on node {a!r}")
        raise GraphError(f"edge ({a!r}, {b!r}) has invalid weight {float(w[i])}")

    # Renumber the used labels by first appearance in u0, v0, u1, v1, ...
    first = np.full(nlab, 2 * m)
    pos = np.arange(0, 2 * m, 2)
    np.minimum.at(first, u, pos)
    pos += 1
    np.minimum.at(first, v, pos)
    del pos
    used = np.flatnonzero(first < 2 * m)
    old_ids = used[np.argsort(first[used])]
    new_id = np.empty(nlab, dtype=np.int64)
    new_id[old_ids] = np.arange(len(old_ids))
    n = len(old_ids)
    labels = [edges.labels[i] for i in old_ids.tolist()]
    if len(set(labels)) < n:
        raise GraphError("edge list labels are not distinct")

    # Equal pairs end up adjacent, in row order, and the sums in (lo, hi) order.
    u = new_id[u]
    v = new_id[v]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v, out=u)
    del u, v
    _sort_pairs(lo, hi, w)
    differs = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    start = np.flatnonzero(np.concatenate(([True], differs)))
    total = _sum_runs(w, start)
    del w
    kept = total != 0
    if not kept.any():
        raise GraphError("all edges cancelled during merging")
    total = total[kept]
    start = start[kept]
    lo = lo[start]
    hi = hi[start]
    return labels, lo, hi, total


def _sum_runs(x: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Sum each run ``x[start[i] : start[i + 1]]`` (the last one up to the
    end of ``x``) left to right, the way a running ``+=`` does.

    ``np.add.reduceat`` is not used: it adds a run's tail pairwise, so a run
    of three or more terms can differ from the running sum in the last bit.
    While many runs are open, one vectorized step adds the next term of
    each, so there are at most ``len(x) / _FEW_RUNS`` steps. The few longest
    runs are then summed one by one with ``np.add.accumulate``, which also
    adds left to right.
    """
    size = np.diff(start, append=len(x))
    run = np.flatnonzero(size > 1)
    size = size[run]
    total = x[start]
    k = 1
    while run.size >= _FEW_RUNS:
        total[run] += x[start[run] + k]
        k += 1
        open_ = size > k
        run, size = run[open_], size[open_]
    for i, a, n in zip(run.tolist(), start[run].tolist(), size.tolist()):
        total[i] = np.add.accumulate(x[a : a + n])[-1]
    return total


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
    """Classify every edge incident to ``c1 | c2`` in one pass over the
    adjacency rows of the union, so the cost is the union's volume.

    Each incident edge lands in exactly one field, so the seven fields sum to
    the total absolute weight incident to the union. An edge inside the
    union is seen from both of its rows and counted at half weight each
    time; a boundary edge is seen once.
    """
    side = _membership(g, c1, c2)
    rows = np.flatnonzero(side)
    adj = g.adjacency
    begin = adj.indptr[rows].astype(np.int64)
    size = adj.indptr[rows + 1] - begin
    # entry positions of the rows, row after row
    at = np.repeat(begin - (np.cumsum(size) - size), size)
    at += np.arange(len(at))
    w = adj.data[at]
    # class = [row side is -1][column side + 1][weight > 0]
    cls = np.repeat(np.int8(6) * (side[rows] < 0), size)
    cls += 2 * (side[adj.indices[at]] + 1)
    cls += w > 0
    # a class holds weights of one sign, so |sum| is the sum of |w|
    c = np.abs(np.bincount(cls, w, minlength=12), dtype=np.float64).reshape(2, 3, 2)
    c[:, (0, 2)] *= 0.5
    return EdgeCounts(
        pos_across=float(c[0, 0, 1] + c[1, 2, 1]),
        neg_in_1=float(c[0, 2, 0]),
        neg_in_2=float(c[1, 0, 0]),
        boundary=float(c[:, 1].sum()),
        pos_in_1=float(c[0, 2, 1]),
        pos_in_2=float(c[1, 0, 1]),
        neg_across=float(c[0, 0, 0] + c[1, 2, 0]),
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

    Components are compared by volume; among equal volumes the component
    holding the smallest node index wins. Returns the subgraph together with
    the dropped node and edge counts; a connected graph is returned as-is.
    The returned graph remembers that it is connected, so
    :meth:`SignedGraph.is_connected` need not search it again.
    """
    ncomp, comp = _components(g)
    if ncomp <= 1:
        if ncomp == 1:
            g._cache["connected"] = True
        return g, 0, 0
    vols = np.bincount(comp, g.degrees, minlength=ncomp)
    best = comp[np.argmax(vols[comp] == vols.max())]
    keep_mask = comp == best
    keep_edges = keep_mask[g.edge_u]
    labels = [g.labels[i] for i in np.flatnonzero(keep_mask).tolist()]
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[keep_mask] = np.arange(keep_mask.sum())
    sub = SignedGraph(
        labels,
        remap[g.edge_u[keep_edges]],
        remap[g.edge_v[keep_edges]],
        g.edge_w[keep_edges],
    )
    sub._cache["connected"] = True
    return sub, int(g.node_count - sub.node_count), int(g.edge_count - sub.edge_count)
