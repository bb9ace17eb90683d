"""Threshold rounding of a real vector to a polarized community.

Thresholding x at t > 0 yields the bands (x >= t, x <= -t); the sweep picks
the t minimizing the signed bipartiteness ratio. ``fast_sweep`` sorts the
nodes once by |x| and fills the ratio of every prefix of that order with one
edge pass, O(m + n log n) total; ``oracle.naive_sweep``, which recomputes
the ratio from scratch at every candidate threshold, is its reference.

The pass works because an edge's class depends only on the signs of its
endpoints, never on the threshold. A prefix's volume counts each edge
leaving it once (the boundary weight |w|) and each edge inside it twice, so
its contradicting weight is its volume plus, per inside edge, the edge's
contradiction weight (2w if positive across the bands, |w| if negative
within one, else 0) minus 2|w|. An edge is inside from prefix ``hi + 1`` on,
``hi`` being the later rank of its endpoints in the |x| order, so one
``bincount`` over ``hi`` and a cumulative sum give every prefix.

Entries with x == 0 are never placed in a band: only strictly positive
thresholds are candidates. The smallest positive threshold already assigns
every nonzero node to a band by sign, so no candidate is lost by excluding
t = 0. Ties in |x| are broken by (|x| descending, x descending, node index
ascending), identically in both sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Community, GraphError, SignedGraph, community


# An edge's charge in units of w, indexed by 2 * (endpoints on one side) +
# (w > 0): negative across 2w, positive across 0, negative within w,
# positive within -2w.
_CHARGE = np.array([2.0, 0.0, 1.0, -2.0])


class SweepError(ValueError):
    """Raised for unsweepable input (e.g. the all-zero vector)."""


@dataclass(frozen=True)
class SweepTable:
    """Per-prefix ratio terms over the |x|-descending node order.

    ``order_abs`` holds the nonzero entries of x, tie-broken as described in
    the module docstring, and ``abs_values`` their |x|. The prefix arrays
    have length ``nz + 1`` with a leading zero (NaN for ``beta_prefix``), so
    index i refers to the top-i prefix, whose bands are its positive and
    negative entries. ``threshold_end[i]`` marks the prefixes that end a tie
    group of |x|, the only ones a threshold can produce. ``numerator`` is the
    contradicting edge weight of each prefix, ``vol_abs`` its volume, and
    ``edge_visits`` the number of edges the build passed over.
    """

    order_abs: np.ndarray
    abs_values: np.ndarray
    threshold_end: np.ndarray
    vol_abs: np.ndarray
    numerator: np.ndarray
    beta_prefix: np.ndarray
    edge_visits: int

    @property
    def size(self) -> int:
        return len(self.order_abs)


def _check_vector(g: SignedGraph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.node_count,):
        raise GraphError(f"vector length {x.shape} does not match n={g.node_count}")
    if not np.any(x != 0.0):
        raise SweepError("sweep input is identically zero")
    return x


def edge_charge(w: np.ndarray, same_side: np.ndarray) -> np.ndarray:
    """Contradiction weight minus 2|w| of each edge, given whether its
    endpoints fall on one side: -2|w| if the edge agrees with the bands, 0
    if positive across them, -|w| if negative within one."""
    return w * _CHARGE[2 * same_side + (w > 0)]


def build_sweep_table(g: SignedGraph, x) -> SweepTable:
    """Fill all prefix arrays in O(m + n log n): one sort, then one edge pass
    charging each edge at the prefix where its later endpoint enters."""
    x = _check_vector(g, x)
    nodes = np.flatnonzero(x != 0.0)
    nz = len(nodes)
    absx = np.abs(x)
    order_abs = nodes[np.lexsort((nodes, -x[nodes], -absx[nodes]))]
    rank = np.full(g.node_count, nz, dtype=np.int32)  # zeros stay unranked
    rank[order_abs] = np.arange(nz, dtype=np.int32)

    # an edge (u, v) of U is an entry of row u and column v
    adj = g.adjacency
    row_size = np.diff(adj.indptr)
    hi = np.repeat(rank, row_size)
    np.maximum(hi, rank.take(adj.indices), out=hi)
    hi += 1  # the first prefix the edge is inside
    positive = x > 0
    same_side = np.repeat(positive, row_size)
    np.equal(same_side, positive.take(adj.indices), out=same_side)
    charge = edge_charge(adj.data, same_side)
    # bin nz + 1 collects the edges touching a zero entry, never inside
    charge = np.bincount(hi, weights=charge, minlength=nz + 2)[: nz + 1]
    vol_abs = np.concatenate([[0.0], np.cumsum(g.degrees[order_abs])])
    numerator = vol_abs + np.cumsum(charge)

    abs_sorted = absx[order_abs]
    threshold_end = np.zeros(nz + 1, dtype=bool)
    threshold_end[1:nz] = abs_sorted[:-1] > abs_sorted[1:]
    threshold_end[nz] = True  # nz >= 1: x is not identically zero

    beta_prefix = np.full(nz + 1, np.nan)
    beta_prefix[1:] = numerator[1:] / vol_abs[1:]

    return SweepTable(
        order_abs=order_abs,
        abs_values=abs_sorted,
        threshold_end=threshold_end,
        vol_abs=vol_abs,
        numerator=numerator,
        beta_prefix=beta_prefix,
        edge_visits=g.edge_count,
    )


def fast_sweep(g: SignedGraph, x) -> Community:
    """Best threshold community via the prefix table.

    Candidates are the prefixes ending a tie group of |x| (each corresponds
    to one threshold value); ties in the ratio are broken toward the smaller
    threshold, i.e. the larger community. The returned community's counts
    are recomputed exactly from the edge list.
    """
    table = build_sweep_table(g, x)  # validates x
    x = np.asarray(x, dtype=np.float64)
    cand = np.flatnonzero(table.threshold_end)
    betas = table.beta_prefix[cand]
    # last position attaining the minimum = smallest winning threshold
    best_i = int(cand[len(betas) - 1 - int(np.argmin(betas[::-1]))])
    prefix = table.order_abs[:best_i]
    return community(g, prefix[x[prefix] > 0], prefix[x[prefix] < 0])
