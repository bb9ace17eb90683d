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
started at b, and there the eigenpair too is a Ritz pair of that one
recurrence, ``_lanczos``, started at a fixed random vector. Neither run
reorthogonalizes: the loss of orthogonality comes with convergence and
does not spoil a converged Ritz pair (Paige, *Linear Algebra Appl.* 34,
1980). Each source also yields the solution y of
(Lnorm - alpha) y = b at the root: the dense path the spectral solution
U (U'b / (theta - alpha)), exact to rounding, Lanczos its Krylov solution.
Jacobi-preconditioned CG on L - alpha*D is CG on Lnorm - alpha started at b,
which is the Lanczos process (Saad, *Iterative Methods for Sparse Linear
Systems*, 2nd ed., 2003, section 6.7), so Lanczos runs until the residual of
its solution is at most the CG tolerance. One preconditioned
conjugate-gradient solve started at x0 = D^{-1/2} y certifies it, in one
step on both paths, and the measured correlation of its result certifies
the root to ``eps``. All of it reaches the operator through
``laplacian_apply``, which on graphs of at least _CONCURRENT_NNZ stored
entries runs its row and column passes over U side by side, with the same
bits as one after the other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .graph import SignedGraph, SeedVector, GraphError, _shared_worker

# Graphs up to this size take the dense eigensolver path and keep the full
# eigendecomposition; above it the matrix-free Lanczos recurrence is used.
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
# Lanczos vectors kept for a Krylov solution or a Ritz vector: at most
# _BASIS_CAP * n floats (at least 2, the pair a second pass resumes from)
_BASIS_CAP = 64
# Stored entries from which laplacian_apply runs its two passes side by
# side: below it handing a pass to a thread costs more than it saves
# (crossover table in BENCH_24.json)
_CONCURRENT_NNZ = 1 << 17


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
    ``lanczos_steps`` counts the Lanczos steps that found the pair, 0 on the
    dense path. The eigensolve made that many matvecs, one more for the
    residual and the ``_basis_sum`` rebuild past ``_BASIS_CAP`` steps.
    """

    lambda1: float
    v1: np.ndarray
    residual: float
    spectrum: tuple[np.ndarray, np.ndarray] | None = None
    lanczos_steps: int = 0


@dataclass(frozen=True)
class SpectralSolution:
    """Continuous optimum of the seed-correlated Rayleigh minimization.

    ``cg_iterations`` counts the iterations of the one CG solve that made
    ``x`` from the spectral or Krylov start (1), ``search_steps`` the
    evaluations of c(alpha) in the final root find (>= 1 if active) and
    ``lanczos_steps`` the Lanczos steps (matvecs) that built the spectrum it
    searched, 0 on the dense path; all three are 0 for the eigenvector.
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
    graph's matvec; no other matrix is ever materialized. From
    _CONCURRENT_NNZ stored entries the two read-only passes run side by
    side, the row pass on the process's one worker thread (scipy's kernels
    release the GIL); the same sums are added in the same order, so the
    result has the same bits either way."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.node_count,):
        raise GraphError(f"vector length {x.shape} does not match n={g.node_count}")
    if "adjacency.T" not in g._cache:  # benign race: the view is the same
        g._cache["adjacency.T"] = g.adjacency.T
    if g.adjacency.nnz < _CONCURRENT_NNZ:
        return g.degrees * x - (g.adjacency @ x + g._cache["adjacency.T"] @ x)
    # the worker lives in graph, which makes it once and resets it in a
    # forked child; io.read_edge_list parses blocks on it too
    rows = _shared_worker().submit(operator.matmul, g.adjacency, x)
    cols = g._cache["adjacency.T"] @ x
    return g.degrees * x - (rows.result() + cols)


def normalized_laplacian_apply(g: SignedGraph, y: np.ndarray) -> np.ndarray:
    """Apply Lnorm = D^{-1/2} L D^{-1/2} to a vector."""
    y = np.asarray(y, dtype=np.float64)
    rootd = np.sqrt(g.degrees)
    return laplacian_apply(g, y / rootd) / rootd


def _lanczos(g: SignedGraph, q: np.ndarray, q_prev: np.ndarray | None = None,
             beta: float = 0.0):
    """The Lanczos recurrence on Lnorm from the unit vector ``q``, without
    reorthogonalization; ``q_prev`` and ``beta``, the previous vector and its
    coupling to ``q``, resume a run. Step k yields the basis vector q_k, the
    tridiagonal so far (its diagonal, k entries, and off-diagonal, k - 1) and
    beta_k = |r_k|, the coupling to the next vector, after one matvec. The
    caller stops at breakdown; the generator ends after 20 n steps.
    """
    if q_prev is None:
        q_prev = np.zeros_like(q)
    diag, off = [], []
    for _ in range(20 * g.node_count):
        v = normalized_laplacian_apply(g, q) - beta * q_prev
        diag.append(float(q @ v))
        v -= diag[-1] * q
        beta = float(np.linalg.norm(v))
        yield q, diag, off, beta
        off.append(beta)
        q_prev, q = q, v / beta


def _basis_sum(g: SignedGraph, basis: list, off: list, c: np.ndarray) -> np.ndarray:
    """Q_k c over the first k = len(c) vectors of a ``_lanczos`` run whose
    first vectors are kept in ``basis`` (at least 2) and whose off-diagonal
    is ``off``. Past the kept ones a second pass resumes the recurrence from
    the last two and their coupling, which remakes the rest bit for bit in
    k - len(basis) + 1 matvecs, so the sum does not depend on the cap."""
    y = np.zeros_like(basis[0])
    for q_j, c_j in zip(basis, c):
        y += c_j * q_j
    if len(c) > len(basis):
        rerun = _lanczos(g, basis[-1], basis[-2], off[len(basis) - 2])
        next(rerun)  # the last kept vector again
        for c_j, (q_j, *_) in zip(c[len(basis):], rerun):  # c first: no extra step
            y += c_j * q_j
    return y


def smallest_eigenpair(g: SignedGraph) -> EigenPair:
    """Smallest eigenpair of the normalized signed Laplacian.

    The eigenvalue lies in [0, 2] and is zero exactly when the graph is
    perfectly balanced. The result is cached on the graph. On
    graphs of up to DENSE_EIG_LIMIT nodes the pair also keeps the full
    eigendecomposition it was read from. Above it the pair is the bottom
    Ritz pair of ``_lanczos`` started at a fixed random vector, run until
    breakdown or until its residual bound beta_k |z_k| is at most
    EIG_TOL / 4; ``_basis_sum`` forms its Ritz vector. A true residual
    above EIG_TOL, or 20 n steps, raise ``ConvergenceError``.
    """
    if not g.is_connected():
        raise GraphError("eigensolver requires a connected graph")
    # benign race under concurrent readers: worst case is a duplicate solve
    if "eig" in g._cache:
        return g._cache["eig"]

    n = g.node_count
    rootd = np.sqrt(g.degrees)
    spectrum = None
    k = 0
    if n <= DENSE_EIG_LIMIT:
        a = g.adjacency.toarray()
        a += a.T  # disjoint triangles: the sum is exact
        lnorm = np.eye(n) - (a / rootd[:, None]) / rootd[None, :]
        spectrum = vals, vecs = np.linalg.eigh(lnorm)
        lam = float(vals[0])
        y = vecs[:, 0]
    else:
        q0 = np.random.default_rng(0).standard_normal(n)
        basis = []
        for k, (q, diag, off, beta) in enumerate(_lanczos(g, q0 / np.linalg.norm(q0)), 1):
            if k <= _BASIS_CAP:
                basis.append(q)
            theta, z = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
            bound = beta * abs(float(z[-1, 0]))
            if bound <= EIG_TOL / 4 or beta <= _BREAKDOWN:
                break
        else:
            raise ConvergenceError(f"eigensolver hit the {20 * n}-step cap", bound)
        lam, y = float(theta[0]), _basis_sum(g, basis, off, z[:, 0])

    y = y / np.linalg.norm(y)
    resid = float(np.linalg.norm(normalized_laplacian_apply(g, y) - lam * y))
    if n > DENSE_EIG_LIMIT and resid > EIG_TOL:
        raise ConvergenceError("eigen-residual above tolerance", resid)
    pair = EigenPair(lambda1=lam, v1=y / rootd, residual=resid, spectrum=spectrum,
                     lanczos_steps=k)
    g._cache["eig"] = pair
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
    count tame for shifts approaching the eigenvalue. The iteration starts
    at ``x0`` (default 0), which is returned after 0 iterations if its
    residual is exactly zero. Returns the solution and the iterations taken.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (g.node_count,):
        raise GraphError(f"vector length {b.shape} does not match n={g.node_count}")
    if not tol > 0:  # also rejects nan
        raise ValueError(f"tol must be positive, got {tol}")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(g.node_count), 0
    if max_iter is None:
        max_iter = 20 * g.node_count

    # diag(L - alpha*D) = (1 - alpha) * deg; alpha < lambda1 <= 1 keeps it positive.
    inv_diag = 1.0 / ((1.0 - alpha) * g.degrees)
    x = np.zeros(g.node_count) if x0 is None else np.array(x0, dtype=np.float64)
    r = b.copy() if x0 is None else b - (laplacian_apply(g, x) - alpha * (g.degrees * x))
    if not r.any():  # an exact start: p = 0 would make p'Ap vanish
        return x, 0
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
        slope = (s2 * s2 - s1 * s3) / s2**1.5
        step = f / slope if slope < 0 else np.inf
        resolved = _C_RESOLUTION * max(1.0, abs(alpha))
        # Stop before the bracket update: an exact root is never bisected
        # away. Rounding can hold |f| above _C_RESOLUTION at the root, so a
        # Newton correction below float resolution stops too, after step 1,
        # where f < 0 at hi means the root lies below hi.
        if ((steps == 1 and f >= 0) or abs(f) <= _C_RESOLUTION
                or (steps > 1 and abs(step) <= resolved) or hi - lo <= resolved):
            break
        if f > 0:
            lo = alpha
        else:
            hi = alpha
        newton = alpha - step
        alpha = newton if lo < newton < hi else 0.5 * (lo + hi)
    return float(alpha), steps


def lanczos_root(
    g: SignedGraph,
    b: np.ndarray,
    kappa: float,
    lo: float,
    hi: float,
    tol: float,
) -> tuple[float, int, int, np.ndarray]:
    """``secular_root`` over the Ritz pairs (theta, |b|^2 z[0]^2) of the
    tridiagonal T_k = Z diag(theta) Z' of Lanczos on Lnorm started at b,
    without reorthogonalization, and the Krylov solution of
    (Lnorm - alpha) y = b at that root, y = Q_k Z (|b| z[0] / (theta - alpha)).
    Runs until breakdown or until the Ritz residual bound
    beta_k |e_k'(T_k - alpha)^{-1} e1|, the relative residual of y and so of
    CG in the same Krylov space, is at most ``tol`` at the current root;
    ``_basis_sum`` forms y. Returns the root, the evaluations of c in its
    final root find, k and y.
    """
    bnorm = float(np.linalg.norm(b))
    basis = []
    for k, (q, diag, off, beta) in enumerate(_lanczos(g, b / bnorm), 1):
        if k <= _BASIS_CAP:
            basis.append(q)
        theta, z = eigh_tridiagonal(diag, off)
        if theta[0] <= hi:
            # Ritz values never fall below the smallest eigenvalue.
            raise SolverError(
                f"Ritz value {theta[0]:.6g} lies below the shift bracket end "
                f"{hi:.6g}: the eigenvalue estimate is too high"
            )
        alpha, steps = secular_root(theta, bnorm**2 * z[0] ** 2, kappa, lo, hi)
        u = z[0] / (theta - alpha)  # (T_k - alpha)^{-1} e1 = Z u
        resid = beta * abs(float(z[-1] @ u))
        if resid <= tol or beta <= _BREAKDOWN:
            return alpha, steps, k, _basis_sum(g, basis, off, z @ (bnorm * u))
    raise ConvergenceError(f"Lanczos hit the {20 * g.node_count}-step cap", resid)


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
    Otherwise one CG solve to ``cg_tol`` at the secular root, started at
    the spectral or Krylov solution (see the module docstring), produces x,
    and a ``SolverError`` is raised unless its correlation lies within
    ``eps`` of ``kappa``, which fails only for an ``eps`` finer than
    floating point resolves c. ``eps`` is only that certificate's bound:
    Lanczos runs to ``cg_tol`` whatever its value.
    """
    if not 0.0 <= kappa < 1.0:
        raise SolverError(f"kappa must lie in [0, 1), got {kappa}")
    if not eps > 0:  # also rejects nan
        raise SolverError(f"eps must be positive, got {eps}")
    if not cg_tol > 0:
        raise SolverError(f"cg_tol must be positive, got {cg_tol}")

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
            alpha, steps, lanczos_steps, y0 = lanczos_root(g, b, kappa, lo, hi, cg_tol)
        else:
            theta, u = eig.spectrum
            ub = u.T @ b
            alpha, steps = secular_root(theta, ub**2, kappa, lo, hi)
            y0 = u @ (ub / (theta - alpha))
        raw, iters = solve_shifted(g, alpha, ds, tol=cg_tol, x0=y0 / np.sqrt(g.degrees))
        raw_norm2 = float(raw @ (g.degrees * raw))
        x = raw / np.sqrt(raw_norm2)
        c = float(x @ ds)
        # x'Lx = alpha + (raw'Ds - raw'r) / raw'D raw for CG's residual r, and
        # raw'r is rounding (~1e-15 of x'Lx) from a spectral or Krylov start.
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
