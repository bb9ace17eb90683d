"""Signed-graph core: sparse storage, degree/volume accounting, edge-class
counts, the polarization ratio, and seed vectors.

Every edge "count" here is a sum of absolute weights, so weighted graphs are
supported throughout; an unweighted graph is the all-weights-one special case.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

Label = Hashable

SEED_NORM_TOL = 1e-10
# Entries per block of the passes over U's rows (_row_blocks) and over flat
# columns (_spans), so that no temporary of theirs is longer.
# The graphs of a few thousand edges that experiments build take one block;
# at 2**12 they took two, and the extra pass made their queries slower.
# Blocks of 2**15 raised the ingest peak of a 75k-key file by 6%.
_GATHER_BLOCK = 1 << 14


class GraphError(ValueError):
    """Malformed graph input or an invalid node-set argument."""


class SignedGraph:
    """Immutable sparse undirected signed graph with cached degrees.

    Nodes are dense indices ``0..n-1``; ``labels[i]`` maps an index back to
    its external label. ``adjacency``, the one edge store, is the strictly
    upper-triangular ``n x n`` scipy CSR matrix ``U`` of the edges, so the
    adjacency matrix is ``U + U.T``; the edge triples ``(u, v, w)``, in
    ``(u, v)`` order, are ``adjacency.tocoo()``'s ``row``, ``col`` and
    ``data``. The constructor keeps ``U``, cast to float64 if it is not,
    and raises :class:`GraphError` unless it is such a matrix in canonical
    form: sorted rows, no repeated entry. :func:`build_graph` makes ``U``
    with int32 indices (int64 past their range).

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

    def __init__(self, labels, adjacency):
        self.labels = tuple(labels)
        self.node_count = n = len(self.labels)
        self.label_index = dict(zip(self.labels, range(n)))
        if len(self.label_index) < n:
            raise GraphError("node labels are not distinct")
        if not (sp.issparse(adjacency) and adjacency.format == "csr" and adjacency.shape == (n, n)):
            raise GraphError(f"adjacency must be a {n} x {n} scipy CSR matrix")
        if not adjacency.has_canonical_format:
            raise GraphError("adjacency rows must be sorted, with no repeated entry")
        indptr, indices = adjacency.indptr, adjacency.indices
        # sorted rows lie above the diagonal if their first entries do, and
        # inside the matrix if their last entries do
        rows = np.flatnonzero(indptr[1:] > indptr[:-1])
        if (indices[indptr[rows]] <= rows).any() or (indices[indptr[rows + 1] - 1] >= n).any():
            raise GraphError("adjacency entries must lie above the diagonal, inside the matrix")
        self.adjacency = adjacency.astype(np.float64, copy=False)
        self.degrees = _end_sums(self.adjacency, np.abs)
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


# The one worker thread of the process, made on first use. The caller runs
# one half of a job while the worker runs the other: spectral.laplacian_apply's
# row pass, and every other block of io.read_edge_list's parse.
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _shared_worker() -> ThreadPoolExecutor:
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix="signedpolar-worker")
        return _worker


def _forget_worker() -> None:
    # A forked child inherits the executor but not its thread, so a task
    # submitted to it would never run; the lock may have been held.
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, no stale worker
    os.register_at_fork(after_in_child=_forget_worker)


def _index_dtype(size: int) -> type:
    """int32 if it holds every index below ``size``, else int64."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


def _spans(size: int):
    """The bounds ``(a, b)`` of the blocks of ``_GATHER_BLOCK`` entries that
    cover ``range(size)``, in order."""
    return ((a, min(a + _GATHER_BLOCK, size)) for a in range(0, size, _GATHER_BLOCK))


def _row_blocks(indptr: np.ndarray, rows: np.ndarray | None = None):
    """The blocks of the entries of a CSR matrix's rows, all or an ascending
    array of them, in order: each of at most ``_GATHER_BLOCK`` entries, or
    one row that holds more. Yields per block its rows, their entry counts
    and their entries' positions; rows and positions are slices where the
    rows are consecutive (always for all rows), else arrays."""
    rows = np.arange(len(indptr) - 1) if rows is None else rows
    counts = indptr[rows + 1] - indptr[rows]
    ends = np.zeros(len(rows) + 1, dtype=np.int64)  # int64, or searchsorted casts it
    np.cumsum(counts, out=ends[1:])
    shift = indptr[rows] - ends[:-1]  # an entry's position less its place in the walk
    j = 0
    while j < len(rows):  # the block of rows i to j - 1
        i, j = j, max(j + 1, int(np.searchsorted(ends, ends[j] + _GATHER_BLOCK, "right")) - 1)
        sizes = counts[i:j]
        if rows[j - 1] - rows[i] == j - 1 - i:  # consecutive rows
            at = slice(int(shift[i] + ends[i]), int(shift[i] + ends[j]))
            yield slice(int(rows[i]), int(rows[j - 1]) + 1), sizes, at
        else:
            yield rows[i:j], sizes, np.repeat(shift[i:j], sizes) + np.arange(ends[i], ends[j])


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


def _end_sums(adj: sp.csr_matrix, part) -> np.ndarray:
    """Sum each entry's weight ``part(w)`` of the CSR matrix ``adj`` onto
    both its ends, a block of :func:`_row_blocks` at a time. Every row term
    comes before every column term, each in entry order from zero: a row's
    by one ``np.bincount`` of its block, then the columns' by ``np.add.at``.
    Degrees, :func:`edge_counts`' internal weights and the positive degrees
    of ``harness.sample_seed_pairs`` all sum this way; the boundary of
    :func:`edge_counts` is exact only because the orders match."""
    sums = np.zeros(adj.shape[0])
    for r, sizes, at in _row_blocks(adj.indptr):
        local = np.repeat(np.arange(len(sizes)), sizes)
        sums[r] = np.bincount(local, part(adj.data[at]), minlength=len(sizes))
    for r, sizes, at in _row_blocks(adj.indptr):
        np.add.at(sums, adj.indices[at], part(adj.data[at]))
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
    labels fit (int64 past that, like the indices of the graph's ``U``); any
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
    dropped. Self-loops and zero or non-finite input weights are rejected,
    reporting the first offending row. The build makes one sort of the
    rows, by the pair key ``lo * n + hi``, in the merge; the sorted keys of
    the surviving pairs give the graph's ``U`` in CSR order, the ``(u, v)``
    order that :func:`~signedpolar.io.write_edge_list` writes them in.
    """
    if not isinstance(edges, EdgeList):
        edges = EdgeList.from_tuples(edges)
    labels, key, w = _check_rows(edges)
    del edges  # unless the caller keeps the list, its columns go here
    w, keep = _merge_pairs(key, w)
    key = key[keep]
    w = w[keep]
    # U straight from the sorted keys: row lo's keys lie in [lo * n, lo * n + n)
    n = len(labels)
    idx = _index_dtype(max(n, len(key)))
    indptr = np.searchsorted(key, np.arange(n + 1) * n).astype(idx)
    indices = np.empty(len(key), dtype=idx)
    for a, b in _spans(len(key)):
        np.remainder(key[a:b], n, out=indices[a:b])
    del key  # before the degree pass
    return SignedGraph(labels, sp.csr_matrix((w, indices, indptr), shape=(n, n)))


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
    ``r``'s internal ``|w|``. The rows go a block of :func:`_row_blocks` at
    a time; the internal entries' columns and ``|w|`` are kept for the
    column terms of ``inner``, after every row term, in the order of
    :func:`_end_sums`: a node without an outside neighbour adds exactly 0,
    and a whole-graph split has boundary 0. ``_side`` is the already built
    ``_membership(g, c1, c2)``."""
    side = _membership(g, c1, c2) if _side is None else _side
    rows = np.flatnonzero(side != 0)  # of a bool array: 9 times faster than of int8
    adj = g.adjacency
    inner = np.empty(g.node_count)  # every row of the union is written
    c = np.zeros(8)  # class = [row side is -1][column side is -1][weight > 0]
    kept = []
    for r, sizes, at in _row_blocks(adj.indptr, rows):
        col = adj.indices[at]
        col_side = side.take(col)
        inside = np.flatnonzero(col_side != 0)  # taken by index: masks cost more
        local = np.repeat(np.arange(len(sizes)), sizes).take(inside)
        col, w = col.take(inside), adj.data[at].take(inside)
        cls = (side[r] < 0).view(np.int8).take(local) * np.int8(4)
        cls += (col_side.take(inside) < 0).view(np.int8) * np.int8(2)
        cls += w > 0
        np.add.at(c, cls, w)  # goes on from the sums of the blocks before
        inner[r] = np.bincount(local, np.abs(w, out=w), minlength=len(sizes))
        kept.append((col, w))
    for col, w in kept:
        np.add.at(inner, col, w)
    c = np.abs(c).reshape(2, 2, 2)  # one sign a class, so |sum| is the sum of |w|
    return EdgeCounts(
        pos_across=float(c[0, 1, 1] + c[1, 0, 1]),
        neg_in_1=float(c[0, 0, 0]),
        neg_in_2=float(c[1, 1, 0]),
        boundary=float(np.maximum(g.degrees[rows] - inner[rows], 0.0).sum()),
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
    c1, c2 = np.flatnonzero(side > 0), np.flatnonzero(side < 0)
    if not (c1.size or c2.size):
        raise GraphError("both bands are empty")
    counts = edge_counts(g, c1, c2, _side=side)
    vol = float(g.degrees[side != 0].sum())
    num = 2.0 * counts.pos_across + counts.neg_in_1 + counts.neg_in_2 + counts.boundary
    return Community(tuple(c1.tolist()), tuple(c2.tolist()), num / vol, counts, vol)


def seed_vector(g: SignedGraph, s1, s2) -> SeedVector:
    """Degree-normalized seed indicator for two disjoint query sets, each
    any iterable or integer array of node indices, repeats allowed and order
    irrelevant. One of the two sets may be empty; the union must not be.
    """
    side = _membership(g, s1, s2)
    union = np.flatnonzero(side != 0)  # a bool array scans far faster than int8
    if not union.size:
        raise GraphError("both seed sets are empty")
    values = side * (1.0 / np.sqrt(float(g.degrees[union].sum())))
    norm = float(g.degrees @ (values * values))
    assert abs(norm - 1.0) <= SEED_NORM_TOL
    return SeedVector(values=values)


def largest_component(g: SignedGraph) -> tuple[SignedGraph, int, int]:
    """Restrict ``g`` to its largest connected component.

    Components are compared by volume; among equal volumes the component
    holding the smallest node index wins. Returns the subgraph, whose ``U``
    is ``g``'s sliced to the kept nodes, together with the dropped node and
    edge counts; a connected graph is returned as-is.
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
    keep = comp == best
    labels = [g.labels[i] for i in np.flatnonzero(keep).tolist()]
    sub = SignedGraph(labels, g.adjacency[keep][:, keep])
    sub._cache["connected"] = True
    return sub, int(g.node_count - sub.node_count), int(g.edge_count - sub.edge_count)
