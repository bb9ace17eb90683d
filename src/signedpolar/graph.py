"""Signed-graph core: sparse storage, degree/volume accounting, edge-class
counts, the polarization ratio, and seed vectors.

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
# Entries per block of the per-edge passes that work a block at a time
# (here, in io and in sweep), so that no temporary of theirs is longer.
# The graphs of a few thousand edges that experiments build take one block;
# at 2**12 they took two, and the extra pass made their queries slower.
# Blocks of 2**15 raised the ingest peak of a 75k-key file by 6%.
_GATHER_BLOCK = 1 << 14


class GraphError(ValueError):
    """Malformed graph input or an invalid node-set argument."""


class SignedGraph:
    """Immutable sparse undirected signed graph with cached degrees.

    Nodes are dense indices ``0..n-1``; ``labels[i]`` maps an index back to
    its external label. The constructor takes each undirected pair exactly
    once with ``edge_u < edge_v``, the pairs in ``(u, v)`` order, and raises
    :class:`GraphError` otherwise; :func:`build_graph` takes rows in any
    order. ``adjacency`` is the strictly upper-triangular
    CSR matrix ``U`` of the edges, so the adjacency matrix is ``U + U.T``:
    row ``u`` holds the edges ``(u, v)`` in ``v`` order, with int32 indices
    (int64 past their range). It is the one edge store; the edge triples
    ``(u, v, w)``, in ``(u, v)`` order, are ``adjacency.tocoo()``'s
    ``row``, ``col`` and ``data``.

    Instances are never mutated after construction and are safe to share
    across threads.
    """

    __slots__ = (
        "node_count",
        "labels",
        "label_index",
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
            raise GraphError("edge pairs must be distinct with edge_u < edge_v, in (u, v) order")
        idx = _index_dtype(max(n, len(w)))
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
        self.adjacency = sp.csr_matrix((w, v.astype(idx, copy=False), indptr), shape=(n, n))
        self.degrees = _end_sums(u, v, w, n, np.abs)
        self.total_volume = float(self.degrees.sum())
        self._cache = {}

    @property
    def edge_count(self) -> int:
        return self.adjacency.nnz

    def index_of(self, label) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise GraphError(f"unknown node label: {label!r}") from None

    def is_connected(self) -> bool:
        if "connected" not in self._cache:
            if self.node_count == 0:
                self._cache["connected"] = False
            else:
                self._cache["connected"] = _components(self)[0] == 1
        return self._cache["connected"]


def _index_dtype(size: int) -> type:
    """int32 if it holds every index below ``size``, else int64."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


def _spans(size: int):
    """The bounds ``(a, b)`` of the blocks of ``_GATHER_BLOCK`` entries that
    cover ``range(size)``, in order."""
    return ((a, min(a + _GATHER_BLOCK, size)) for a in range(0, size, _GATHER_BLOCK))


def _row_spans(indptr: np.ndarray):
    """The bounds ``(r0, r1)`` of consecutive row ranges of a CSR matrix
    that cover all its entries, in order, each holding about
    ``_GATHER_BLOCK`` entries: more only where one row holds more."""
    row_of = np.searchsorted(indptr, np.arange(0, indptr[-1], _GATHER_BLOCK), side="right") - 1
    starts = list(dict.fromkeys(row_of.tolist()))  # row_of is sorted
    return zip(starts, starts[1:] + [len(indptr) - 1])


def _or_positions(words: np.ndarray) -> None:
    """OR each uint64 word's position into its low bits, a block at a time."""
    for a, b in _spans(len(words)):
        words[a:b] |= np.arange(a, b, dtype=np.uint64)


def _stable_sort(key: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Sort the non-negative int64 ``key`` in place, stably; returns the
    column ``col`` in the same order, as a new array, and leaves ``col`` as
    it is.

    When ``bit_length(key.max()) + bit_length(len(key) - 1) <= 64``, one
    ``np.sort`` of uint64 words, each a key above its position, is several
    times faster than a stable argsort, and the keys come out of the words
    without a gather; the column is gathered a block at a time, by the
    positions in the words' low bits, so the permutation is never stored
    whole. Wider keys take ``np.argsort(key, kind="stable")`` instead.
    The build's pair keys lie below ``n**2``, so they pack whenever
    ``bit_length(n**2) + bit_length(m - 1) <= 64``: 56 bits for 100k nodes
    and 2.6M rows. 2.6M rows pack up to about 2M nodes, 30M rows up to
    about 740k.
    """
    bits = np.uint64(max(1, (len(key) - 1).bit_length()))
    if len(key) and int(key.max()).bit_length() + int(bits) > 64:
        order = np.argsort(key, kind="stable")
        key.sort()
        return col[order]
    packed = key.view(np.uint64)
    packed <<= bits
    _or_positions(packed)
    packed.sort()
    low = (np.uint64(1) << bits) - np.uint64(1)
    out = np.empty_like(col)
    for a, b in _spans(len(key)):
        out[a:b] = col[(packed[a:b] & low).view(np.int64)]
    packed >>= bits
    return out


def _in_pair_order(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the pairs ``(u, v)`` strictly increase and each has ``u < v``."""
    ahead = u[1:] > u[:-1]
    ahead |= (u[1:] == u[:-1]) & (v[1:] > v[:-1])
    return bool(ahead.all() and (u < v).all())


def _end_sums(rows: np.ndarray, cols: np.ndarray, w: np.ndarray, size: int, part) -> np.ndarray:
    """Sum each entry's weight ``part(w)`` onto both its ends: its row and
    its column.

    ``np.add.at`` adds in index order from zero, as one ``np.bincount``
    would, and every row term comes before every column term. It goes a
    block of entries at a time, so ``part(w)`` is never made whole.
    Degrees, :func:`edge_counts`' internal weights and the positive degrees
    of ``harness.sample_seed_pairs`` all sum this way; the boundary of
    :func:`edge_counts` is exact only because the orders match.
    """
    sums = np.zeros(size)
    for ends in (rows, cols):
        for a, b in _spans(len(w)):
            np.add.at(sums, ends[a:b], part(w[a:b]))
    return sums


def _components(g: SignedGraph) -> tuple[int, np.ndarray]:
    """Number of connected components and each node's component, from an
    undirected search over the upper triangle."""
    return connected_components(g.adjacency, directed=False)


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
    The seeds are ``np.flatnonzero(values)``.
    """

    values: np.ndarray


@dataclass(frozen=True, eq=False)
class EdgeList:
    """Labeled edges as columns: row ``i`` joins ``labels[u[i]]`` and
    ``labels[v[i]]`` with weight ``w[i]``, rows in any order.

    ``u`` and ``v`` are integer arrays.
    :func:`~signedpolar.io.read_edge_list` gives them as int32 when the
    labels fit (int64 past that, like :class:`SignedGraph`'s indices); any
    integer dtype builds the same graph, and building leaves the arrays
    unwritten. Labels must be distinct. The graph built from the list keeps
    the list's order of labels as its node order, without the labels that
    no row uses. ``len()`` is the number of rows.
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

    Nodes keep the list's order of labels; labels that no row uses are
    dropped. Tuples are numbered by first appearance (row by row, ``u``
    before ``v``), as :func:`~signedpolar.io.read_edge_list` numbers a
    file's labels. Duplicate undirected pairs are merged by summing their
    weights in row order; a pair whose merged weight is exactly zero is
    dropped. The surviving pairs come out in ``(u, v)`` order, the order
    :class:`SignedGraph` takes and :func:`~signedpolar.io.write_edge_list`
    writes them in. Self-loops and zero or non-finite input weights are
    rejected, reporting the first offending row. The build makes one sort
    of the rows, by the pair key ``lo * n + hi``, in the merge.
    """
    if not isinstance(edges, EdgeList):
        edges = EdgeList.from_tuples(edges)
    labels, key, w = _check_rows(edges)
    del edges  # unless the caller keeps the list, its columns go here
    w, keep = _merge_pairs(key, w)
    key = key[keep]
    w = w[keep]
    # split each key back into its pair: lo in the key's own buffer
    n = len(labels)
    hi = np.empty_like(key)
    for a, b in _spans(len(key)):
        np.divmod(key[a:b], n, out=(key[a:b], hi[a:b]))
    return SignedGraph(labels, key, hi, w)


def _check_rows(edges: EdgeList) -> tuple[list, np.ndarray, np.ndarray]:
    """Check the edge list; returns its used labels, in list order, the
    rows' pair keys ``lo * n + hi`` as a new int64 array, ``lo < hi``
    numbered over those ``n`` labels, and the list's own weights as
    float64. The keys are written a block of rows at a time."""
    # int32 and int64 columns are read as they are, others as int64
    u, v = (
        c if c.dtype in (np.int32, np.int64) else c.astype(np.int64)
        for c in map(np.asarray, (edges.u, edges.v))
    )
    w = np.asarray(edges.w, dtype=np.float64)
    m = len(w)
    if u.shape != (m,) or v.shape != (m,):
        raise GraphError("edge columns u, v, w differ in length")
    if m == 0:
        raise GraphError("empty edge list")
    nlab = len(edges.labels)
    if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= nlab:
        raise GraphError(f"edge endpoint index out of range [0, {nlab})")
    bad = np.flatnonzero((u == v) | (w == 0.0) | ~np.isfinite(w))
    if bad.size:
        i = int(bad[0])
        a, b = edges.labels[u[i]], edges.labels[v[i]]
        if u[i] == v[i]:
            raise GraphError(f"self-loop on node {a!r}")
        raise GraphError(f"edge ({a!r}, {b!r}) has invalid weight {float(w[i])}")

    used = np.zeros(nlab, dtype=bool)
    used[u] = True
    used[v] = True
    # as read_edge_list and EdgeList.from_tuples number them
    every_label = bool(used.all())
    labels = list(edges.labels) if every_label else [
        edges.labels[i] for i in np.flatnonzero(used).tolist()
    ]
    if len(set(labels)) < len(labels):
        raise GraphError("edge list labels are not distinct")
    new_id = None if every_label else np.cumsum(used) - 1  # used labels keep their order
    n = len(labels)
    key = np.empty(m, dtype=np.int64)
    for a, b in _spans(m):
        lo = np.minimum(u[a:b], v[a:b], dtype=np.int64)
        hi = np.maximum(u[a:b], v[a:b], dtype=np.int64)
        if new_id is not None:
            lo, hi = new_id[lo], new_id[hi]
        lo *= n
        np.add(lo, hi, out=key[a:b])
    return labels, key, w


def _merge_pairs(key: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the pair keys ``key`` in place, equal keys in row order, and
    sum each repeated pair's weights into its first row. Returns the rows'
    weights in key order, as a new array with those sums, and the mask of
    the rows to keep: each pair's first row unless its sum is zero.

    The sort is one :func:`_stable_sort` of the keys. Only the rows of
    pairs that occur twice or more are summed, by one ``np.bincount`` over
    their run numbers. bincount adds a bin's weights in index order, like
    a running ``+=`` from 0.0, so each sum has the bits of the row-order
    sum; ``np.add.reduceat`` adds a run's tail pairwise and can differ in
    the last bit.
    """
    w = _stable_sort(key, w)
    head = np.empty(len(w), dtype=bool)  # the first row of each pair
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    rep = ~head
    rep[:-1] |= rep[1:]  # every row of a pair that occurs twice or more
    w[rep & head] = np.bincount(np.cumsum(head[rep]) - 1, weights=w[rep])
    head &= w != 0
    if not head.any():
        raise GraphError("all edges cancelled during merging")
    return w, head


def _membership(g: SignedGraph, c1, c2) -> np.ndarray:
    """The int8 side vector of two node collections: +1 on ``c1``, -1 on
    ``c2``, 0 elsewhere. Each is any iterable or integer array of node
    indices, repeats allowed, order irrelevant. This is the one check of
    node indices: one outside ``[0, n)`` or in both raises :class:`GraphError`.
    """
    side = np.zeros(g.node_count, dtype=np.int8)
    for nodes, mark in ((c1, 1), (c2, -1)):
        if not isinstance(nodes, np.ndarray):
            nodes = np.fromiter(nodes, dtype=np.int64)
        idx = nodes.astype(np.int64, copy=False)
        bad = idx[(idx < 0) | (idx >= g.node_count)]
        if bad.size:
            raise GraphError(f"node index {bad[0]} out of range [0, {g.node_count})")
        both = idx[side[idx] != 0]
        if both.size:
            raise GraphError(f"the two node sets overlap on nodes {np.unique(both).tolist()}")
        side[idx] = mark
    return side


def edge_counts(g: SignedGraph, c1, c2, *, _side=None) -> EdgeCounts:
    """Classify every edge incident to ``c1 | c2`` from the upper-triangle
    rows of the union, so the cost is the union's volume.

    Each incident edge lands in exactly one field, so the seven fields sum to
    the total absolute weight incident to the union. An edge inside the
    union is seen once, from the row of its lower endpoint. A boundary edge
    may lie in a row outside the union, so the boundary is summed per node:
    ``max(deg[r] - inner[r], 0)`` over the union, ``inner[r]`` being node
    ``r``'s internal ``|w|``. ``inner`` and ``degrees`` are both summed by
    :func:`_end_sums`, so a node without an outside neighbour adds exactly 0,
    and a whole-graph split has boundary 0. ``_side`` is the already built
    ``_membership(g, c1, c2)``."""
    side = _membership(g, c1, c2) if _side is None else _side
    rows = np.flatnonzero(side)
    adj = g.adjacency
    begin = adj.indptr[rows].astype(np.int64)
    size = adj.indptr[rows + 1] - begin
    # entry positions of the rows, row after row
    at = np.repeat(begin - (np.cumsum(size) - size), size)
    at += np.arange(len(at))
    col = adj.indices[at]
    inside = side[col] != 0
    at = at[inside]
    w = adj.data[at]
    # each internal entry's row and column as positions in rows
    place = np.empty(g.node_count, dtype=np.int64)  # read only at rows
    place[rows] = np.arange(len(rows))
    k = np.repeat(np.arange(len(rows)), size)[inside]
    j = place[col[inside]]
    # class = [row side is -1][column side is -1][weight > 0]
    neg = (side[rows] < 0).astype(np.int8)
    cls = neg[k] * np.int8(4)
    cls += neg[j] * np.int8(2)
    cls += w > 0
    # a class holds weights of one sign, so |sum| is the sum of |w|
    c = np.abs(np.bincount(cls, w, minlength=8)).reshape(2, 2, 2)
    inner = _end_sums(k, j, w, len(rows), np.abs)
    return EdgeCounts(
        pos_across=float(c[0, 1, 1] + c[1, 0, 1]),
        neg_in_1=float(c[0, 0, 0]),
        neg_in_2=float(c[1, 1, 0]),
        boundary=float(np.maximum(g.degrees[rows] - inner, 0.0).sum()),
        pos_in_1=float(c[0, 0, 1]),
        pos_in_2=float(c[1, 1, 1]),
        neg_across=float(c[0, 1, 0] + c[1, 0, 0]),
    )


def community(g: SignedGraph, c1, c2) -> Community:
    """Assemble a :class:`Community` with its counts, volume, and ratio.

    ``c1`` and ``c2`` are disjoint node collections as :func:`_membership`
    takes them; the bands are their distinct nodes in ascending order.
    """
    side = _membership(g, c1, c2)
    union = np.flatnonzero(side)
    if not union.size:
        raise GraphError("both bands are empty")
    c1 = np.flatnonzero(side > 0)
    c2 = np.flatnonzero(side < 0)
    counts = edge_counts(g, c1, c2, _side=side)
    vol = float(g.degrees[union].sum())
    num = 2.0 * counts.pos_across + counts.neg_in_1 + counts.neg_in_2 + counts.boundary
    return Community(
        c1=tuple(c1.tolist()),
        c2=tuple(c2.tolist()),
        beta=num / vol,
        counts=counts,
        volume=vol,
    )


def seed_vector(g: SignedGraph, s1, s2) -> SeedVector:
    """Degree-normalized seed indicator for two disjoint query sets, each
    any iterable or integer array of node indices, repeats allowed and order
    irrelevant. One of the two sets may be empty; the union must not be.
    """
    side = _membership(g, s1, s2)
    union = np.flatnonzero(side)
    if not union.size:
        raise GraphError("both seed sets are empty")
    values = side * (1.0 / np.sqrt(float(g.degrees[union].sum())))
    norm = float(g.degrees @ (values * values))
    assert abs(norm - 1.0) <= SEED_NORM_TOL
    return SeedVector(values=values)


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
    edges = g.adjacency.tocoo()
    keep_edges = keep_mask[edges.row]
    labels = [g.labels[i] for i in np.flatnonzero(keep_mask).tolist()]
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[keep_mask] = np.arange(keep_mask.sum())
    sub = SignedGraph(
        labels,
        remap[edges.row[keep_edges]],
        remap[edges.col[keep_edges]],
        edges.data[keep_edges],
    )
    sub._cache["connected"] = True
    return sub, int(g.node_count - sub.node_count), int(g.edge_count - sub.edge_count)
