"""Brute-force and dense-algebra certificates for desk-scale instances.

These routines exist to check the main pipeline against ground truth that
is computed by exhaustive enumeration or dense linear algebra: the seeded
discrete optimum (a local Cheeger-style constant), the relaxation bound
between the continuous objective and that optimum, the rounding guarantee,
and first-order optimality residuals of the continuous solution.

``naive_read_edge_list``, ``naive_build_graph`` and ``naive_degrees`` are
the per-line and per-edge references for the columnar ingest in ``io`` and
``graph``; ``naive_edge_counts`` is the all-edges reference for the
row pass of ``graph.edge_counts``; ``naive_sweep`` is the per-threshold
reference for ``sweep.fast_sweep``; ``bisect_shift`` is the
one-CG-solve-per-step reference for the secular root in ``spectral``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import (
    Community,
    EdgeCounts,
    GraphError,
    Label,
    SignedGraph,
    _membership,
    community,
    seed_vector,
)
from .io import IngestError
from .spectral import (
    DEFAULT_CG_TOL,
    SHIFT_GUARD,
    SolverError,
    shift_lower_bound,
    smallest_eigenpair,
    solve_seeded,
    solve_shifted,
)
from .sweep import _check_vector, fast_sweep

BRUTE_FORCE_NODE_LIMIT = 16
_CHUNK = 1 << 16  # labelings per vectorized block; bounds peak memory


class OracleError(ValueError):
    """Instance too large, or no feasible labeling exists."""


@dataclass(frozen=True)
class CheegerCertificate:
    """Exhaustive minimum of the ratio over seed-containing communities.

    ``argmin`` attains ``h_value`` among all band pairs that contain the
    seeds and whose volume is at most k times the seed volume;
    ``feasible_count`` is the number of labelings meeting those constraints.
    The seeds are not stored; see :func:`brute_force_cheeger`.
    """

    h_value: float
    argmin: Community
    feasible_count: int
    k: float


@dataclass(frozen=True)
class KktReport:
    """First-order optimality residuals of a continuous solution.

    ``stationarity_residual`` fits the best scalar multiple of D s to
    (L - alpha D) x in least squares, which sidesteps the exact scaling
    convention of the multiplier; ``multiplier`` is that fitted scalar.
    """

    primal_norm_residual: float
    correlation_slack: float
    stationarity_residual: float
    complementary_slackness: float
    multiplier: float


@dataclass(frozen=True)
class RelaxationReport:
    lambda_value: float
    h_value: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class ApproximationReport:
    beta_out: float
    sweep_bound: float
    cheeger_bound: float
    h_value: float
    lambda_value: float
    ok: bool


def naive_read_edge_list(path) -> list[tuple[str, str, float]]:
    """Reference for ``io.read_edge_list``: one Python line at a time."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise IngestError(
                    f"{path}:{lineno}: expected 'u v w', got {raw.strip()!r}"
                )
            try:
                w = float(parts[2])
            except ValueError:
                raise IngestError(
                    f"{path}:{lineno}: weight {parts[2]!r} is not a number"
                ) from None
            edges.append((parts[0], parts[1], w))
    if not edges:
        raise IngestError(f"{path}: no edges found")
    return edges


def naive_build_graph(edges: Iterable[tuple[Label, Label, float]]) -> SignedGraph:
    """Reference for ``graph.build_graph``: a dict merge, one edge at a time."""
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
    for (i, j), w in sorted(merged.items()):
        if w == 0.0:
            continue
        eu.append(i)
        ev.append(j)
        ew.append(w)
    if not eu:
        raise GraphError("all edges cancelled during merging")
    return SignedGraph(labels, eu, ev, ew)


def naive_degrees(g: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``SignedGraph.degrees`` and the positive degrees of
    ``harness.sample_seed_pairs``: ``np.add.at`` over ``U``'s rows, then
    over its columns."""
    edges = g.adjacency.tocoo()
    absw = np.abs(edges.data)
    posw = np.where(edges.data > 0, edges.data, 0.0)
    deg = np.zeros(g.node_count)
    pos = np.zeros(g.node_count)
    for ends in (edges.row, edges.col):
        np.add.at(deg, ends, absw)
        np.add.at(pos, ends, posw)
    return deg, pos


def naive_edge_counts(g: SignedGraph, c1, c2) -> EdgeCounts:
    """Reference for ``graph.edge_counts``: a masked pass over all edges."""
    side = _membership(g, c1, c2)
    edges = g.adjacency.tocoo()
    su = side[edges.row]
    sv = side[edges.col]
    w = edges.data
    aw = np.abs(w)
    pos = w > 0
    across = su.astype(np.int16) * sv == -1
    same1 = (su == 1) & (sv == 1)
    same2 = (su == -1) & (sv == -1)
    bound = (su != 0) != (sv != 0)
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


def indicator_vector(g: SignedGraph, c1, c2) -> np.ndarray:
    """The +1/-1/0 vector form of a band pair."""
    return _membership(g, c1, c2).astype(np.float64)


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
    edges = g.adjacency.tocoo()
    xu = x[edges.row]
    xv = x[edges.col]
    w = edges.data
    pos = w > 0
    num = float((w[pos] * (xu[pos] - xv[pos]) ** 2).sum())
    num += float((-w[~pos] * (xu[~pos] + xv[~pos]) ** 2).sum())
    return num / denom


def naive_sweep(g: SignedGraph, x) -> Community:
    """Reference for ``sweep.fast_sweep``: evaluate the ratio from scratch
    at every threshold.

    Runs in O(m) per candidate threshold and shares no intermediate state
    with the fast path, so it serves as an independent oracle for it.
    """
    x = _check_vector(g, x)
    thresholds = np.unique(np.abs(x[x != 0.0]))[::-1]
    edges = g.adjacency.tocoo()
    xu = x[edges.row]
    xv = x[edges.col]
    w = edges.data
    aw = np.abs(w)
    pos = w > 0
    deg = g.degrees

    best_beta = np.inf
    best_t = None
    for t in thresholds:
        hi_u = xu >= t
        hi_v = xv >= t
        lo_u = xu <= -t
        lo_v = xv <= -t
        in_u = hi_u | lo_u
        in_v = hi_v | lo_v
        across = (hi_u & lo_v) | (lo_u & hi_v)
        same1 = hi_u & hi_v
        same2 = lo_u & lo_v
        num = 2.0 * float(w[pos & across].sum())
        num += float(aw[~pos & (same1 | same2)].sum())
        num += float(aw[in_u != in_v].sum())
        vol = float(deg[(x >= t) | (x <= -t)].sum())
        b = num / vol
        if b <= best_beta:
            best_beta = b
            best_t = t
    c1 = np.flatnonzero(x >= best_t)
    c2 = np.flatnonzero(x <= -best_t)
    return community(g, c1, c2)


def correlation_at(
    g: SignedGraph,
    alpha: float,
    s,
    tol: float = DEFAULT_CG_TOL,
) -> tuple[float, np.ndarray, int]:
    """Seed correlation of the shifted solve at ``alpha``.

    Solves (L - alpha*D) x = D s, degree-normalizes x, and flips its sign so
    the correlation x'Ds is nonnegative. Returns (correlation, x, cg_iters).
    """
    ds = g.degrees * s.values
    raw, iters = solve_shifted(g, alpha, ds, tol=tol)
    norm = float(g.degrees @ (raw * raw))
    if norm == 0.0:
        raise SolverError("shifted solve returned the zero vector")
    x = raw / np.sqrt(norm)
    c = float(x @ ds)
    if c < 0:
        x, c = -x, -c
    return c, x, iters


def bisect_shift(
    g: SignedGraph,
    s,
    kappa: float,
    eps: float = 1e-3,
    cg_tol: float = DEFAULT_CG_TOL,
) -> tuple[float, float, np.ndarray]:
    """Reference for the shift that ``solve_seeded`` finds when the
    constraint is active: bisection on [min(alpha_lo(kappa), hi), hi],
    hi = lambda1 - SHIFT_GUARD, with one cold CG solve per step, until the
    correlation lies within ``eps`` of ``kappa``. Relies on c(alpha) being
    non-increasing. Returns (alpha, correlation, x).
    """
    hi = smallest_eigenpair(g).lambda1 - SHIFT_GUARD
    lo = min(shift_lower_bound(kappa), hi)
    while hi - lo > 1e-15 * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        c, x, _ = correlation_at(g, mid, s, tol=cg_tol)
        if abs(c - kappa) <= eps:
            return mid, c, x
        if c > kappa:
            lo = mid
        else:
            hi = mid
    raise OracleError(f"no shift reaches correlation {kappa} within eps={eps:.3g}")


def dense_operators(g: SignedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (A, D, L) for small instances; independent of the sparse paths."""
    a = g.adjacency.toarray()
    a += a.T
    d = np.diag(g.degrees)
    return a, d, d - a


def _enumerate_min(g, base, k):
    """Vectorized scan over all {band1, band2, neither} labelings that agree
    with the seed side vector ``base`` on its nonzero entries."""
    deg = g.degrees
    seeded = base != 0
    free = np.flatnonzero(~seeded)
    nfree = len(free)
    vol_seed = float(deg[seeded].sum())
    budget = k * vol_seed * (1.0 + 1e-12)

    edges = g.adjacency.tocoo()
    eu, ev, w = edges.row, edges.col, edges.data
    aw = np.abs(w)
    pos = w > 0

    best_beta = np.inf
    best_sigma = None
    feasible = 0
    total = 3**nfree
    digits = 3 ** np.arange(nfree, dtype=np.int64) if nfree else None
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        codes = np.arange(start, stop, dtype=np.int64)
        sigma = np.tile(base, (len(codes), 1))
        if nfree:
            trits = (codes[:, None] // digits[None, :]) % 3
            sigma[:, free] = (trits - 1).astype(np.int8)
        nz = sigma != 0
        vol = nz @ deg
        feas = vol <= budget
        feasible += int(feas.sum())
        if not feas.any():
            continue
        sig = sigma[feas]
        volf = vol[feas]
        su = sig[:, eu].astype(np.int16)
        sv = sig[:, ev].astype(np.int16)
        prod = su * sv
        num = 2.0 * ((prod == -1) & pos) @ w
        num += ((prod == 1) & ~pos) @ aw
        num += ((su != 0) != (sv != 0)) @ aw
        betas = num / volf
        i = int(np.argmin(betas))
        if betas[i] < best_beta:
            best_beta = float(betas[i])
            best_sigma = sig[i].copy()
    return best_beta, best_sigma, feasible


def brute_force_cheeger(g: SignedGraph, s1, s2, k: float) -> CheegerCertificate:
    """Exact seeded optimum by enumerating every 3-way node labeling.

    Requires n <= 16. Both seed-to-band assignments are tried and the better
    kept (they are symmetric, so this is a consistency belt). Each seed side
    is any iterable or integer array of node indices; one may be empty, the
    union must not be.
    """
    if g.node_count > BRUTE_FORCE_NODE_LIMIT:
        raise OracleError(
            f"brute force limited to n <= {BRUTE_FORCE_NODE_LIMIT}, got {g.node_count}"
        )
    side = _membership(g, s1, s2)
    if not side.any():
        raise GraphError("both seed sets are empty")

    b1, sig1, n1 = _enumerate_min(g, side, k)
    b2, sig2, n2 = _enumerate_min(g, -side, k)
    if sig2 is not None:
        sig2 = -sig2  # swap bands back so seeds land in their own sides
    if sig1 is None and sig2 is None:
        raise OracleError(f"no feasible labeling for k={k}")
    if sig2 is None or (sig1 is not None and b1 <= b2):
        best_beta, best_sigma, feasible = b1, sig1, n1
    else:
        best_beta, best_sigma, feasible = b2, sig2, n2

    argmin = community(
        g, np.flatnonzero(best_sigma == 1), np.flatnonzero(best_sigma == -1)
    )
    return CheegerCertificate(
        h_value=argmin.beta,
        argmin=argmin,
        feasible_count=feasible,
        k=float(k),
    )


def grid_search_minimum(
    g: SignedGraph,
    s1,
    s2,
    kappa: float,
    num_points: int = 10_000,
    feasibility_slack: float = 0.0,
) -> tuple[float, float]:
    """Dense sweep of the one-parameter solution family.

    Solves (L - alpha D) x = D s on a dense alpha grid over
    [-vol(G), lambda1), keeps candidates whose normalized correlation
    reaches kappa (minus ``feasibility_slack``), and returns
    (best objective, its alpha). The bottom eigenvector is always included
    as the alpha -> lambda1 endpoint.
    """
    a, dmat, lmat = dense_operators(g)
    deg = g.degrees
    s = seed_vector(g, s1, s2)
    ds = deg * s.values
    eig = smallest_eigenpair(g)
    lam1 = eig.lambda1
    vol = g.total_volume

    alphas = np.linspace(-vol, lam1 - max(1e-9, 1e-9 * vol), num_points)
    shifted = lmat[None, :, :] - alphas[:, None, None] * dmat[None, :, :]
    rhs = np.broadcast_to(ds[:, None], (num_points, len(ds), 1))
    xs = np.linalg.solve(shifted, rhs)[:, :, 0]
    norms = np.sqrt(np.einsum("ij,j,ij->i", xs, deg, xs))
    xs = xs / norms[:, None]
    corr = np.abs(xs @ ds)
    objs = np.einsum("ij,jk,ik->i", xs, lmat, xs)

    v1 = eig.v1
    corr = np.append(corr, abs(float(v1 @ ds)))
    objs = np.append(objs, lam1)
    alphas = np.append(alphas, lam1)

    ok = corr >= kappa - feasibility_slack
    if not ok.any():
        raise OracleError(f"no grid candidate reaches correlation {kappa}")
    best = int(np.argmin(np.where(ok, objs, np.inf)))
    return float(objs[best]), float(alphas[best])


def kkt_check(
    g: SignedGraph,
    x: np.ndarray,
    s,
    alpha: float,
    kappa: float,
) -> KktReport:
    """First-order residuals of a candidate continuous solution (pure report)."""
    x = np.asarray(x, dtype=np.float64)
    sv = s.values if hasattr(s, "values") else np.asarray(s, dtype=np.float64)
    deg = g.degrees
    ds = deg * sv
    primal = abs(float(x @ (deg * x)) - 1.0)
    slack = float(x @ ds) - kappa
    _, _, lmat = dense_operators(g)
    r = lmat @ x - alpha * (deg * x)
    mult = float(r @ ds) / float(ds @ ds)
    stationarity = float(np.linalg.norm(r - mult * ds))
    return KktReport(
        primal_norm_residual=primal,
        correlation_slack=slack,
        stationarity_residual=stationarity,
        complementary_slackness=abs(slack * mult),
        multiplier=mult,
    )


def verify_relaxation(
    g: SignedGraph,
    s1,
    s2,
    k: float,
    eps: float = 1e-6,
    solver_eps: float = 1e-6,
    cg_tol: float = 1e-10,
) -> RelaxationReport:
    """Check that the continuous optimum is at most four times the seeded
    discrete optimum, at correlation kappa = sqrt(1/k). Requires k > 1 so
    that kappa < 1."""
    if k <= 1:
        raise OracleError("relaxation check requires k > 1")
    cert = brute_force_cheeger(g, s1, s2, k)
    s = seed_vector(g, s1, s2)
    sol = solve_seeded(g, s, kappa=float(np.sqrt(1.0 / k)), eps=solver_eps, cg_tol=cg_tol)
    bound = 4.0 * cert.h_value + eps
    return RelaxationReport(
        lambda_value=sol.objective,
        h_value=cert.h_value,
        bound=bound,
        ok=sol.objective <= bound,
    )


def verify_approximation(
    g: SignedGraph,
    s1,
    s2,
    k: float,
    eps: float = 1e-6,
    solver_eps: float = 1e-6,
    cg_tol: float = 1e-10,
) -> ApproximationReport:
    """Run the full solve-then-round pipeline and check both guarantees:
    the rounded ratio is at most sqrt(2 * continuous objective) and at most
    sqrt(8 * discrete optimum), up to eps."""
    if k <= 1:
        raise OracleError("approximation check requires k > 1")
    cert = brute_force_cheeger(g, s1, s2, k)
    s = seed_vector(g, s1, s2)
    sol = solve_seeded(g, s, kappa=float(np.sqrt(1.0 / k)), eps=solver_eps, cg_tol=cg_tol)
    rounded = fast_sweep(g, sol.x)
    rq = rayleigh_quotient(g, sol.x)
    sweep_bound = float(np.sqrt(2.0 * rq))
    cheeger_bound = float(np.sqrt(8.0 * cert.h_value))
    ok = (rounded.beta <= sweep_bound + eps) and (rounded.beta <= cheeger_bound + eps)
    return ApproximationReport(
        beta_out=rounded.beta,
        sweep_bound=sweep_bound,
        cheeger_bound=cheeger_bound,
        h_value=cert.h_value,
        lambda_value=sol.objective,
        ok=ok,
    )
