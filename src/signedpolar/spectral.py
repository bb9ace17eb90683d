"""Matrix-free spectral machinery for the seeded polarization solver.

The continuous problem minimized here is: find x with x'Dx = 1 and
x'Ds >= kappa that minimizes x'Lx, where L = D - A is the signed Laplacian
and s a degree-normalized seed vector. Its optimum lies on a one-parameter
family x(alpha) ~ (L - alpha*D)^+ D s with alpha below the smallest
eigenvalue lambda1 of the normalized Laplacian, so the solver runs a binary
search on alpha, solving each shifted system with preconditioned conjugate
gradients, until the correlation x'Ds lands within ``eps`` of ``kappa``.

The search brackets alpha in [alpha_lo(kappa), lambda1 - delta): the
spectrum lies in [0, 2], so by the Kantorovich inequality c(alpha) >=
2*sqrt(r) / (1 + r) with r = (2 - alpha) / (-alpha), for every graph and
seed; ``shift_lower_bound`` solves that bound for kappa.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .graph import SignedGraph, SeedVector, GraphError, rayleigh_quotient

# Graphs up to this size take the dense eigensolver path; above it a
# matrix-free Lanczos iteration on 2I - Lnorm (spectrum in [0, 2]) is used.
DENSE_EIG_LIMIT = 512

DEFAULT_EIG_TOL = 1e-8
DEFAULT_CG_TOL = 1e-8

_MAX_SEARCH_STEPS = 200


class SolverError(RuntimeError):
    """A linear solve or the correlation search failed."""


class ConvergenceError(SolverError):
    """An iterative method hit its cap; carries the best residual reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class EigenPair:
    """Smallest eigenvalue of the normalized signed Laplacian.

    ``v1`` is degree-normalized (v1' D v1 = 1); ``residual`` is the measured
    2-norm eigen-residual in the symmetric (D^{1/2}-scaled) coordinates.
    """

    lambda1: float
    v1: np.ndarray
    residual: float


@dataclass(frozen=True)
class SpectralSolution:
    """Continuous optimum of the seed-correlated Rayleigh minimization."""

    x: np.ndarray
    alpha: float
    correlation: float
    kappa_target: float
    lambda1: float
    objective: float
    cg_iterations: int
    search_steps: int
    constraint_active: bool
    warnings: tuple[str, ...] = field(default=())


def laplacian_apply(g: SignedGraph, x: np.ndarray) -> np.ndarray:
    """Apply L = D - A in one adjacency pass; no matrix beyond the CSR
    adjacency is ever materialized."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.node_count,):
        raise GraphError(f"vector length {x.shape} does not match n={g.node_count}")
    return g.degrees * x - g.adjacency @ x


def normalized_laplacian_apply(g: SignedGraph, y: np.ndarray) -> np.ndarray:
    """Apply Lnorm = D^{-1/2} L D^{-1/2} to a vector."""
    y = np.asarray(y, dtype=np.float64)
    rootd = np.sqrt(g.degrees)
    return laplacian_apply(g, y / rootd) / rootd


def smallest_eigenpair(g: SignedGraph, tol: float = DEFAULT_EIG_TOL) -> EigenPair:
    """Smallest eigenpair of the normalized signed Laplacian.

    The eigenvalue lies in [0, 2] and is zero exactly when the graph is
    perfectly balanced. Results are cached on the graph per tolerance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not g.is_connected():
        raise GraphError("eigensolver requires a connected graph")
    # benign race under concurrent readers: worst case is a duplicate solve
    key = ("eig", tol)
    if key in g._cache:
        return g._cache[key]

    n = g.node_count
    rootd = np.sqrt(g.degrees)
    if n <= DENSE_EIG_LIMIT:
        lnorm = np.eye(n) - (g.adjacency.toarray() / rootd[:, None]) / rootd[None, :]
        vals, vecs = np.linalg.eigh(lnorm)
        lam = float(vals[0])
        y = vecs[:, 0]
    else:
        # Lanczos on the flipped operator 2I - Lnorm turns the smallest
        # eigenvalue into the dominant one, which ARPACK finds matrix-free.
        op = spla.LinearOperator(
            (n, n),
            matvec=lambda y: 2.0 * y - normalized_laplacian_apply(g, y),
            dtype=np.float64,
        )
        v0 = np.random.default_rng(0).standard_normal(n)
        maxiter = max(1000, int(50 * np.sqrt(n)))
        try:
            vals, vecs = spla.eigsh(op, k=1, which="LA", tol=tol / 4,
                                    v0=v0, maxiter=maxiter)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError("eigensolver did not converge", np.inf) from exc
        lam = float(2.0 - vals[0])
        y = vecs[:, 0]

    y = y / np.linalg.norm(y)
    resid = float(np.linalg.norm(normalized_laplacian_apply(g, y) - lam * y))
    if n > DENSE_EIG_LIMIT and resid > tol:
        raise ConvergenceError("eigen-residual above tolerance", resid)
    pair = EigenPair(lambda1=lam, v1=y / rootd, residual=resid)
    g._cache[key] = pair
    return pair


def solve_shifted(
    g: SignedGraph,
    alpha: float,
    b: np.ndarray,
    tol: float = DEFAULT_CG_TOL,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Solve (L - alpha*D) x = b by preconditioned conjugate gradients.

    The operator must be positive definite, i.e. alpha below the smallest
    normalized-Laplacian eigenvalue; an indefinite shift is reported through
    the curvature test. Jacobi (degree) preconditioning keeps the iteration
    count tame for shifts approaching the eigenvalue.

    Returns the solution and the number of CG iterations taken.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (g.node_count,):
        raise GraphError(f"vector length {b.shape} does not match n={g.node_count}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(g.node_count), 0
    if max_iter is None:
        max_iter = 20 * g.node_count

    # diag(L - alpha*D) = (1 - alpha) * deg; alpha < lambda1 <= 1 keeps it positive.
    inv_diag = 1.0 / ((1.0 - alpha) * g.degrees)

    def apply(v: np.ndarray) -> np.ndarray:
        return laplacian_apply(g, v) - alpha * (g.degrees * v)

    if x0 is None:
        x = np.zeros(g.node_count)
        r = b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = b - apply(x)
        if float(np.linalg.norm(r)) <= tol * bnorm:
            return x, 0
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        ap = apply(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise SolverError(
                f"shifted operator is not positive definite at alpha={alpha:.6g}"
            )
        gamma = rz / pap
        x += gamma * p
        r -= gamma * ap
        if float(np.linalg.norm(r)) <= tol * bnorm:
            return x, it
        z = inv_diag * r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise ConvergenceError(
        f"conjugate gradients hit the {max_iter}-iteration cap",
        float(np.linalg.norm(r)) / bnorm,
    )


def _correlation_raw(
    g: SignedGraph,
    alpha: float,
    ds: np.ndarray,
    tol: float,
    x0: np.ndarray | None,
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Correlation plus both the normalized and raw solve (for warm starts:
    raw solutions at nearby shifts share their scale, normalized ones do not)."""
    raw, iters = solve_shifted(g, alpha, ds, tol=tol, x0=x0)
    norm = float(g.degrees @ (raw * raw))
    if norm == 0.0:
        raise SolverError("shifted solve returned the zero vector")
    x = raw / np.sqrt(norm)
    c = float(x @ ds)
    if c < 0:
        x = -x
        c = -c
    return c, x, raw, iters


def correlation_at(
    g: SignedGraph,
    alpha: float,
    s: SeedVector,
    tol: float = DEFAULT_CG_TOL,
) -> tuple[float, np.ndarray, int]:
    """Seed correlation of the shifted solve at ``alpha``.

    Solves (L - alpha*D) x = D s, degree-normalizes x, and flips its sign so
    the correlation x'Ds is nonnegative. Returns (correlation, x, cg_iters).
    """
    c, x, _, iters = _correlation_raw(g, alpha, g.degrees * s.values, tol, None)
    return c, x, iters


def shift_lower_bound(kappa: float) -> float:
    """alpha_lo = -2 / (R - 1), R = ((1 + q) / kappa)^2, q = sqrt(1 - kappa^2):
    the shift at which the Kantorovich bound 2*sqrt(r) / (1 + r) is kappa."""
    q = np.sqrt((1.0 - kappa) * (1.0 + kappa))
    return float(-kappa * kappa / (q * (1.0 + q)))  # -2 / (R - 1), no cancellation


def solve_seeded(
    g: SignedGraph,
    s: SeedVector,
    kappa: float,
    eps: float = 1e-3,
    cg_tol: float = DEFAULT_CG_TOL,
    eig_tol: float = DEFAULT_EIG_TOL,
) -> SpectralSolution:
    """Minimize x'Lx over x'Dx = 1 subject to seed correlation x'Ds >= kappa.

    When the bottom eigenvector already satisfies the correlation bound the
    constraint is inactive and the eigenvector is returned (its objective,
    the smallest eigenvalue, is the unconstrained minimum). Otherwise the
    correlation c(alpha) of the shifted solves is driven to ``kappa`` by
    bisection on alpha in [alpha_lo(kappa), lambda1 - delta) (see the module
    docstring), relying on c being non-increasing in alpha; monotonicity is
    checked as the search proceeds and a violation is surfaced as a warning
    on the solution. It fails only if ``eps`` is finer than floating point
    resolves c.
    """
    if not 0.0 <= kappa < 1.0:
        raise SolverError(f"kappa must lie in [0, 1), got {kappa}")
    if eps <= 0:
        raise SolverError("eps must be positive")
    if not g.is_connected():
        raise GraphError("solver requires a connected graph")

    warnings: list[str] = []
    eig = smallest_eigenpair(g, tol=eig_tol)
    lam1 = eig.lambda1
    ds = g.degrees * s.values
    v1 = eig.v1
    c_limit = float(v1 @ ds)
    if c_limit < 0:
        v1 = -v1
        c_limit = -c_limit
    if c_limit < 1e-8:
        warnings.append(
            "seed vector is nearly D-orthogonal to the bottom eigenspace; "
            "the solution family may not contain the optimum"
        )

    if kappa <= c_limit:
        return SpectralSolution(
            x=v1,
            alpha=lam1,
            correlation=c_limit,
            kappa_target=kappa,
            lambda1=lam1,
            objective=lam1,
            cg_iterations=0,
            search_steps=0,
            constraint_active=False,
            warnings=tuple(warnings),
        )

    # The guard below lambda1 only needs to absorb the eigenvalue error of
    # the estimate (which does not grow with graph size); a volume-scaled
    # guard would truncate the usable shift range on large graphs.
    delta = max(10.0 * eig_tol, 1e-12)
    hi = lam1 - delta
    lo = min(shift_lower_bound(kappa), hi)
    total_cg = 0

    # Invariants maintained below: c(lo) >= kappa, and c(hi) <= kappa
    # whenever the hi end has been evaluated. c <= 1 by Cauchy-Schwarz.
    c_lo = 1.0
    c_hi_seen: float | None = None
    raw_prev = None
    steps = 0
    for steps in range(1, _MAX_SEARCH_STEPS + 1):
        mid = 0.5 * (lo + hi)
        c_mid, x_mid, raw_prev, it = _correlation_raw(g, mid, ds, cg_tol, raw_prev)
        total_cg += it
        if c_mid > c_lo + 1e-6 or (c_hi_seen is not None and c_mid < c_hi_seen - 1e-6):
            warnings.append(
                f"correlation not monotone within tolerance at alpha={mid:.6g}"
            )
        if abs(c_mid - kappa) <= eps:
            return SpectralSolution(
                x=x_mid,
                alpha=mid,
                correlation=c_mid,
                kappa_target=kappa,
                lambda1=lam1,
                objective=rayleigh_quotient(g, x_mid),
                cg_iterations=total_cg,
                search_steps=steps,
                constraint_active=True,
                warnings=tuple(warnings),
            )
        if c_mid > kappa:
            lo, c_lo = mid, c_mid
        else:
            hi, c_hi_seen = mid, c_mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            if c_hi_seen is None:
                # Correlation stays above kappa all the way to the guard
                # band below lambda1: the constraint is inactive but the
                # bottom eigenspace is degenerate, so the near-eigenvalue
                # solve is the right representative.
                warnings.append(
                    "constraint inactive at a degenerate bottom eigenspace"
                )
                return SpectralSolution(
                    x=x_mid,
                    alpha=mid,
                    correlation=c_mid,
                    kappa_target=kappa,
                    lambda1=lam1,
                    objective=rayleigh_quotient(g, x_mid),
                    cg_iterations=total_cg,
                    search_steps=steps,
                    constraint_active=False,
                    warnings=tuple(warnings),
                )
            break
    raise SolverError(
        f"correlation {kappa} unreachable within eps={eps:.3g}: the search "
        f"stalled at alpha={lo:.6g} after {steps} bisection steps"
    )
