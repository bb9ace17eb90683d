"""Matrix-free spectral machinery for the seeded polarization solver.

The continuous problem minimized here is: find x with x'Dx = 1 and
x'Ds >= kappa that minimizes x'Lx, where L = D - A is the signed Laplacian
and s a degree-normalized seed vector. Its optimum lies on a one-parameter
family x(alpha) ~ (L - alpha*D)^+ D s with alpha below the smallest
eigenvalue lambda1 of the normalized Laplacian Lnorm. Over pairs
(theta_i, w_i) of eigenvalues of Lnorm and squared weights of b = D^{1/2} s
on their eigenvectors, its correlation x'Ds is the secular function

    c(alpha) = s1 / sqrt(s2),    s_j = sum_i w_i / (theta_i - alpha)^j,

which decreases in alpha. The solver finds the root of c(alpha) = kappa on
[alpha_lo(kappa), lambda1 - SHIFT_GUARD]: the spectrum lies in [0, 2], so
by the Kantorovich inequality c(alpha) >= 2*sqrt(r) / (1 + r) with
r = (2 - alpha) / (-alpha), for every graph and seed, and
``shift_lower_bound`` solves that bound for kappa. Up to DENSE_EIG_LIMIT
nodes the pairs come from the full eigendecomposition that
``smallest_eigenpair`` computes anyway; above it, from Lanczos on Lnorm
started at b. Lanczos stops once Gauss and Gauss-Radau quadrature over its
tridiagonal bracket the true c at the root within ``eps / 2`` of kappa
(Golub & Meurant, *Matrices, Moments and Quadrature*, 2010): Gauss bounds
s1 and s2 from below, Gauss-Radau with a node at ``hi <= lambda1`` from
above, so s1_G / sqrt(s2_R) <= c <= s1_R / sqrt(s2_G). One preconditioned
conjugate-gradient solve at the root then produces x, and its measured
correlation certifies the root to ``eps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from .graph import SignedGraph, SeedVector, GraphError

# Graphs up to this size take the dense eigensolver path and keep the full
# eigendecomposition; above it a matrix-free Lanczos iteration is used.
DENSE_EIG_LIMIT = 512

# smallest_eigenpair's residual tolerance; SHIFT_GUARD absorbs its error
EIG_TOL = 1e-8
SHIFT_GUARD = 10.0 * EIG_TOL
DEFAULT_CG_TOL = 1e-8

# Float resolution of a correlation c <= 1: the secular root stops there,
# and the certificate counts it as error.
_C_RESOLUTION = 4 * np.finfo(np.float64).eps
_ROOT_STEPS = 100
_BREAKDOWN = 1e-12  # a vanishing Lanczos coupling, against |Lnorm| <= 2


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
    ``spectrum`` is the full eigendecomposition (theta, U) of Lnorm when the
    dense path computed it, and None on the matrix-free path.
    """

    lambda1: float
    v1: np.ndarray
    residual: float
    spectrum: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class SpectralSolution:
    """Continuous optimum of the seed-correlated Rayleigh minimization.

    ``cg_iterations`` counts the iterations of the one CG solve that made
    ``x``, ``search_steps`` the evaluations of c(alpha) in the final root
    find (>= 1 if the constraint is active) and ``lanczos_steps`` the
    Lanczos steps (matvecs) that built the spectrum it searched, 0 on the
    dense path; all three are 0 for the eigenvector.
    """

    x: np.ndarray
    alpha: float
    correlation: float
    kappa_target: float
    lambda1: float
    objective: float
    cg_iterations: int
    search_steps: int
    lanczos_steps: int
    constraint_active: bool
    warnings: tuple[str, ...] = field(default=())


def laplacian_apply(g: SignedGraph, x: np.ndarray) -> np.ndarray:
    """Apply L = D - A with A = U + U', U the upper-triangle adjacency: one
    pass over U by rows and one by columns, through its zero-copy CSC
    transpose, kept on the graph because making it costs more than a small
    graph's matvec; no other matrix is ever materialized."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.node_count,):
        raise GraphError(f"vector length {x.shape} does not match n={g.node_count}")
    if "adjacency.T" not in g._cache:  # benign race: the view is the same
        g._cache["adjacency.T"] = g.adjacency.T
    return g.degrees * x - (g.adjacency @ x + g._cache["adjacency.T"] @ x)


def normalized_laplacian_apply(g: SignedGraph, y: np.ndarray) -> np.ndarray:
    """Apply Lnorm = D^{-1/2} L D^{-1/2} to a vector."""
    y = np.asarray(y, dtype=np.float64)
    rootd = np.sqrt(g.degrees)
    return laplacian_apply(g, y / rootd) / rootd


def smallest_eigenpair(g: SignedGraph) -> EigenPair:
    """Smallest eigenpair of the normalized signed Laplacian.

    The eigenvalue lies in [0, 2] and is zero exactly when the graph is
    perfectly balanced. The result is cached on the graph. On
    graphs of up to DENSE_EIG_LIMIT nodes the pair also keeps the full
    eigendecomposition it was read from.
    """
    if not g.is_connected():
        raise GraphError("eigensolver requires a connected graph")
    # benign race under concurrent readers: worst case is a duplicate solve
    if "eig" in g._cache:
        return g._cache["eig"]

    n = g.node_count
    rootd = np.sqrt(g.degrees)
    spectrum = None
    if n <= DENSE_EIG_LIMIT:
        a = g.adjacency.toarray()
        a += a.T  # disjoint triangles: the sum is exact
        lnorm = np.eye(n) - (a / rootd[:, None]) / rootd[None, :]
        spectrum = vals, vecs = np.linalg.eigh(lnorm)
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
            vals, vecs = spla.eigsh(op, k=1, which="LA", tol=EIG_TOL / 4,
                                    v0=v0, maxiter=maxiter)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError("eigensolver did not converge", np.inf) from exc
        lam = float(2.0 - vals[0])
        y = vecs[:, 0]

    y = y / np.linalg.norm(y)
    resid = float(np.linalg.norm(normalized_laplacian_apply(g, y) - lam * y))
    if n > DENSE_EIG_LIMIT and resid > EIG_TOL:
        raise ConvergenceError("eigen-residual above tolerance", resid)
    pair = EigenPair(lambda1=lam, v1=y / rootd, residual=resid, spectrum=spectrum)
    g._cache["eig"] = pair
    return pair


def solve_shifted(
    g: SignedGraph,
    alpha: float,
    b: np.ndarray,
    tol: float = DEFAULT_CG_TOL,
    max_iter: int | None = None,
) -> tuple[np.ndarray, int]:
    """Solve (L - alpha*D) x = b by preconditioned conjugate gradients.

    The operator must be positive definite, i.e. alpha below the smallest
    normalized-Laplacian eigenvalue; an indefinite shift is reported through
    the curvature test. Jacobi (degree) preconditioning keeps the iteration
    count tame for shifts approaching the eigenvalue. The iteration starts
    at x = 0. Returns the solution and the number of CG iterations taken.
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
    x = np.zeros(g.node_count)
    r = b.copy()
    p = z = inv_diag * r
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        ap = laplacian_apply(g, p) - alpha * (g.degrees * p)
        pap = float(p @ ap)
        if pap == 0.0:  # p is nonzero, so p'Ap underflowed with the residual
            raise ConvergenceError(
                "conjugate gradients stalled: the residual underflowed",
                float(np.linalg.norm(r)) / bnorm,
            )
        if pap < 0.0:
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
        if rz_next == 0.0:  # r is nonzero, so r'D^-1 r underflowed
            raise ConvergenceError(
                "conjugate gradients stalled: the residual underflowed",
                float(np.linalg.norm(r)) / bnorm,
            )
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise ConvergenceError(
        f"conjugate gradients hit the {max_iter}-iteration cap",
        float(np.linalg.norm(r)) / bnorm,
    )


def shift_lower_bound(kappa: float) -> float:
    """alpha_lo = -2 / (R - 1), R = ((1 + q) / kappa)^2, q = sqrt(1 - kappa^2):
    the shift at which the Kantorovich bound 2*sqrt(r) / (1 + r) is kappa."""
    q = np.sqrt((1.0 - kappa) * (1.0 + kappa))
    return float(-kappa * kappa / (q * (1.0 + q)))  # -2 / (R - 1), no cancellation


def secular_root(
    theta: np.ndarray, w: np.ndarray, kappa: float, lo: float, hi: float
) -> tuple[float, int]:
    """Root of c(alpha) = kappa on [lo, hi] over the pairs (theta, w), all
    theta above ``hi``, by Newton steps kept inside the shrinking bracket
    (bisection otherwise); dc/dalpha = (s2^2 - s1*s3) / s2^1.5 <= 0. Returns
    the root, ``hi`` when c(hi) >= kappa, and the evaluations of c made.
    """
    alpha = hi
    for steps in range(1, _ROOT_STEPS + 1):
        u = 1.0 / (theta - alpha)
        s1, s2, s3 = w @ u, w @ u**2, w @ u**3
        f = s1 / np.sqrt(s2) - kappa
        # Stop before the bracket update: an exact root is never bisected away.
        if ((steps == 1 and f >= 0) or abs(f) <= _C_RESOLUTION
                or hi - lo <= _C_RESOLUTION * max(1.0, abs(alpha))):
            break
        if f > 0:
            lo = alpha
        else:
            hi = alpha
        slope = (s2 * s2 - s1 * s3) / s2**1.5
        newton = alpha - f / slope if slope < 0 else hi
        alpha = newton if lo < newton < hi else 0.5 * (lo + hi)
    return float(alpha), steps


def _moments(theta: np.ndarray, w: np.ndarray, alpha: float) -> tuple[float, float]:
    u = 1.0 / (theta - alpha)
    return float(w @ u), float(w @ u**2)


def correlation_bracket(
    gauss: tuple[np.ndarray, np.ndarray],
    radau: tuple[np.ndarray, np.ndarray],
    alpha: float,
) -> tuple[float, float]:
    """Bounds c_lo <= c(alpha) <= c_hi from the Gauss pairs (theta, w) of a
    Lanczos tridiagonal and the Gauss-Radau pairs of its extension with a
    prescribed node in (alpha, lambda1]. On the spectrum 1/(t - alpha)^j has
    positive even and negative odd derivatives, so Gauss underestimates s1
    and s2 and Gauss-Radau overestimates them: c_lo = s1_G / sqrt(s2_R) and
    c_hi = s1_R / sqrt(s2_G).
    """
    s1_g, s2_g = _moments(*gauss, alpha)
    s1_r, s2_r = _moments(*radau, alpha)
    return s1_g / np.sqrt(s2_r), s1_r / np.sqrt(s2_g)


def lanczos_root(
    g: SignedGraph,
    b: np.ndarray,
    kappa: float,
    lo: float,
    hi: float,
    tol: float,
    eps: float,
) -> tuple[float, int, int]:
    """``secular_root`` over the Ritz pairs (theta, |b|^2 z[0]^2) of the
    tridiagonal T_k = Z diag(theta) Z' of Lanczos on Lnorm started at b,
    without reorthogonalization or a stored basis. Stops at the first step
    k where the ``correlation_bracket`` at the current root lies within
    ``eps / 2`` of ``kappa``; its Gauss-Radau matrix extends T_k by beta_k
    and the diagonal omega = hi + beta_k^2 sum_i z[-1, i]^2 / (theta_i - hi),
    which makes ``hi`` an eigenvalue. The bracket is skipped at a root equal
    to ``hi``, where its upper end is infinite. Stops earlier at breakdown
    or once the Ritz residual bound beta_k |e_k'(T_k - alpha)^{-1} e1|, the
    relative residual CG reaches in the same Krylov space, is at most
    ``tol``. Returns the root, the evaluations of c in its final root find
    and k.
    """
    bnorm = float(np.linalg.norm(b))
    q_prev, q = np.zeros_like(b), b / bnorm
    diag, off = [], []
    beta = 0.0
    cap = 20 * g.node_count
    for k in range(1, cap + 1):
        v = normalized_laplacian_apply(g, q) - beta * q_prev
        diag.append(float(q @ v))
        v -= diag[-1] * q
        beta = float(np.linalg.norm(v))
        theta, z = eigh_tridiagonal(diag, off)
        if theta[0] <= hi:
            # Ritz values never fall below the smallest eigenvalue.
            raise SolverError(
                f"Ritz value {theta[0]:.6g} lies below the shift bracket end "
                f"{hi:.6g}: the eigenvalue estimate is too high"
            )
        w = bnorm**2 * z[0] ** 2
        alpha, steps = secular_root(theta, w, kappa, lo, hi)
        resid = beta * abs(float(z[-1] @ (z[0] / (theta - alpha))))
        if resid <= tol or beta <= _BREAKDOWN:
            return alpha, steps, k
        if alpha < hi:
            omega = hi + beta**2 * float(z[-1] ** 2 @ (1.0 / (theta - hi)))
            theta_r, z_r = eigh_tridiagonal(diag + [omega], off + [beta])
            c_lo, c_hi = correlation_bracket(
                (theta, w), (theta_r, bnorm**2 * z_r[0] ** 2), alpha)
            if abs(c_lo - kappa) <= eps / 2 and abs(c_hi - kappa) <= eps / 2:
                return alpha, steps, k
        off.append(beta)
        q_prev, q = q, v / beta
    raise ConvergenceError(f"Lanczos hit the {cap}-step cap", resid)


def solve_seeded(
    g: SignedGraph,
    s: SeedVector,
    kappa: float,
    eps: float = 1e-3,
    cg_tol: float = DEFAULT_CG_TOL,
) -> SpectralSolution:
    """Minimize x'Lx over x'Dx = 1 subject to seed correlation x'Ds >= kappa.

    When the bottom eigenvector already satisfies the correlation bound the
    constraint is inactive and the eigenvector is returned (its objective,
    the smallest eigenvalue, is the unconstrained minimum), and so is the
    solve at lambda1 - SHIFT_GUARD when c stays above ``kappa`` up to there.
    Otherwise one CG solve at the secular root (see the module docstring)
    produces x, and a ``SolverError`` is raised unless its correlation lies
    within ``eps`` of ``kappa``, which fails only for an ``eps`` finer than
    floating point resolves c.
    """
    if not 0.0 <= kappa < 1.0:
        raise SolverError(f"kappa must lie in [0, 1), got {kappa}")
    if eps <= 0:
        raise SolverError("eps must be positive")
    if not g.is_connected():
        raise GraphError("solver requires a connected graph")

    warnings: list[str] = []
    eig = smallest_eigenpair(g)
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

    active = kappa > c_limit
    lanczos_steps = 0
    if not active:
        x, alpha, c, objective, iters, steps = v1, lam1, c_limit, lam1, 0, 0
    else:
        hi = lam1 - SHIFT_GUARD
        lo = min(shift_lower_bound(kappa), hi)
        b = np.sqrt(g.degrees) * s.values
        if eig.spectrum is None:
            alpha, steps, lanczos_steps = lanczos_root(g, b, kappa, lo, hi, cg_tol, eps)
        else:
            theta, u = eig.spectrum
            alpha, steps = secular_root(theta, (u.T @ b) ** 2, kappa, lo, hi)
        raw, iters = solve_shifted(g, alpha, ds, tol=cg_tol)
        raw_norm2 = float(raw @ (g.degrees * raw))
        x = raw / np.sqrt(raw_norm2)
        c = float(x @ ds)
        # CG leaves its residual D s - (L - alpha D) raw orthogonal to raw.
        objective = alpha + float(raw @ ds) / raw_norm2
        active = alpha < hi
        if not active:
            # The bottom eigenspace is degenerate or misses the seeds, so
            # the near-eigenvalue solve is the right representative.
            warnings.append("constraint inactive at a degenerate bottom eigenspace")
        elif abs(c - kappa) + _C_RESOLUTION > eps:
            raise SolverError(
                f"correlation {kappa} unreachable within eps={eps:.3g}: the "
                f"certifying solve at alpha={alpha:.6g} reached {c!r}"
            )
    return SpectralSolution(
        x=x,
        alpha=alpha,
        correlation=c,
        kappa_target=kappa,
        lambda1=lam1,
        objective=objective,
        cg_iterations=iters,
        search_steps=steps,
        lanczos_steps=lanczos_steps,
        constraint_active=active,
        warnings=tuple(warnings),
    )
