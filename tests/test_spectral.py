import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signedpolar import (
    ConvergenceError,
    GraphError,
    SolverError,
    bisect_shift,
    build_graph,
    correlation_at,
    fast_sweep,
    generate,
    grid_search_minimum,
    laplacian_apply,
    random_signed_graph,
    rayleigh_quotient,
    seed_vector,
    smallest_eigenpair,
    solve_seeded,
    solve_shifted,
)
from signedpolar import spectral
from signedpolar.graph import SeedVector
from signedpolar.spectral import SHIFT_GUARD, shift_lower_bound
from signedpolar.synth import SynthParams
from conftest import dense_normalized_laplacian, make_random_graph


class TestLaplacianApply:
    def test_t3_vector(self, t3):
        np.testing.assert_allclose(
            laplacian_apply(t3, np.array([1.0, 1.0, -1.0])), [2.0, 0.0, -2.0]
        )

    def test_zero_vector(self, t3):
        np.testing.assert_allclose(laplacian_apply(t3, np.zeros(3)), np.zeros(3))

    def test_constant_in_kernel_of_positive_edge(self, single_edge):
        np.testing.assert_allclose(
            laplacian_apply(single_edge, np.ones(2)), np.zeros(2), atol=1e-15
        )

    def test_length_mismatch(self, t3):
        with pytest.raises(GraphError):
            laplacian_apply(t3, np.zeros(4))

    def test_matches_dense_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            g = make_random_graph(15, 30, seed=seed, weighted=True)
            a = g.adjacency.toarray()
            a += a.T  # adjacency holds the upper triangle
            dense_l = np.diag(g.degrees) - a
            x = rng.standard_normal(g.node_count)
            np.testing.assert_allclose(
                laplacian_apply(g, x), dense_l @ x, rtol=1e-12, atol=1e-12
            )


class TestSmallestEigenpair:
    def test_t3_value(self, t3):
        eig = smallest_eigenpair(t3)
        assert eig.lambda1 == pytest.approx(0.5, abs=1e-10)
        assert eig.residual <= 1e-8

    def test_balanced_graph_zero(self, balanced_path):
        assert smallest_eigenpair(balanced_path).lambda1 == pytest.approx(0.0, abs=1e-12)

    def test_spectral_range_and_dense_agreement(self):
        for seed in range(8):
            g = make_random_graph(30, 70, seed=seed, weighted=seed % 2 == 0)
            eig = smallest_eigenpair(g)
            assert -1e-10 <= eig.lambda1 <= 2.0 + 1e-10
            lam_dense = np.linalg.eigvalsh(dense_normalized_laplacian(g))[0]
            assert eig.lambda1 == pytest.approx(lam_dense, abs=1e-9)

    def test_sparse_path_matches_dense_oracle(self):
        g = make_random_graph(600, 2000, seed=9, weighted=True)
        eig = smallest_eigenpair(g)  # n > dense limit: Lanczos path
        lam_dense = np.linalg.eigvalsh(dense_normalized_laplacian(g))[0]
        assert eig.lambda1 == pytest.approx(lam_dense, abs=1e-7)
        assert eig.residual <= 1e-8

    def test_v1_degree_normalized(self, t3):
        eig = smallest_eigenpair(t3)
        assert t3.degrees @ (eig.v1**2) == pytest.approx(1.0, rel=1e-10)

    def test_disconnected_rejected(self):
        g = build_graph([("a", "b", 1.0), ("x", "y", 1.0)])
        with pytest.raises(GraphError):
            smallest_eigenpair(g)


class TestSolveShifted:
    def test_two_node_exact(self, single_edge):
        b = np.array([1.0, -1.0]) / np.sqrt(2)
        x, iters = solve_shifted(single_edge, -1.0, b)
        np.testing.assert_allclose(x, b / 3.0, rtol=1e-10)
        assert iters >= 1

    def test_zero_rhs(self, t3):
        x, iters = solve_shifted(t3, -0.5, np.zeros(3))
        assert iters == 0
        np.testing.assert_allclose(x, np.zeros(3))

    def test_t3_against_dense_solve(self, t3):
        s = seed_vector(t3, {0}, {2})
        b = t3.degrees * s.values
        x, _ = solve_shifted(t3, 0.0, b, tol=1e-12)
        a = t3.adjacency.toarray()
        a += a.T  # adjacency holds the upper triangle
        dense_l = np.diag(t3.degrees) - a
        np.testing.assert_allclose(x, np.linalg.solve(dense_l, b), rtol=1e-8)

    def test_random_graphs_against_dense(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            g = make_random_graph(20, 50, seed=seed, weighted=True)
            lam1 = smallest_eigenpair(g).lambda1
            alpha = lam1 - rng.uniform(0.05, 1.0)
            b = rng.standard_normal(g.node_count)
            x, _ = solve_shifted(g, alpha, b, tol=1e-11)
            a = g.adjacency.toarray()
            a += a.T  # adjacency holds the upper triangle
            dense = np.diag(g.degrees) - a - alpha * np.diag(g.degrees)
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-6, atol=1e-9)

    def test_indefinite_shift_detected(self, t3):
        # alpha far above lambda1 = 0.5 makes the operator indefinite
        with pytest.raises(SolverError):
            solve_shifted(t3, 0.9, np.array([1.0, 0.3, -0.2]))

    def test_residual_tolerance_respected(self, t3):
        b = np.array([1.0, -0.5, 0.25])
        x, _ = solve_shifted(t3, -0.3, b, tol=1e-10)
        r = laplacian_apply(t3, x) + 0.3 * t3.degrees * x - b
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)

    def test_iteration_cap_raises_with_residual(self, t3):
        with pytest.raises(ConvergenceError) as exc:
            solve_shifted(t3, -0.5, np.array([1.0, -1.0, 0.5]), tol=1e-15, max_iter=1)
        assert exc.value.residual > 0

    def test_unreachable_tolerance_raises_with_residual(self):
        # the recursive residual underflows long before 1e-300 * |b| (on some
        # inputs CG instead ends at an exactly zero residual)
        g = make_random_graph(30, 60, seed=2, weighted=True)
        s = seed_vector(g, {0}, {1})
        with pytest.raises(ConvergenceError, match="underflowed") as exc:
            solve_seeded(g, s, kappa=0.9, cg_tol=1e-300)
        assert 0 < exc.value.residual < 1e-100

    @given(n=st.sampled_from([20, 30, 40]), per_node=st.sampled_from([2, 3]),
           graph_seed=st.integers(0, 2**16), log_tol=st.floats(-300, -8))
    @example(n=20, per_node=2, graph_seed=9, log_tol=-300)
    @example(n=40, per_node=3, graph_seed=11, log_tol=-300)
    @settings(max_examples=60, deadline=None)
    def test_any_tolerance_certifies_or_raises_convergence(
        self, n, per_node, graph_seed, log_tol
    ):
        # Below lambda1 the operator is positive definite, so no tolerance,
        # however far below float resolution, may report it indefinite.
        g = random_signed_graph(n, per_node * n, rng_seed=graph_seed, weighted=True)
        s = seed_vector(g, {0}, {1})
        try:
            sol = solve_seeded(g, s, kappa=0.9, cg_tol=10.0**log_tol)
        except ConvergenceError as exc:
            assert exc.residual >= 0
        else:
            assert abs(sol.correlation - 0.9) <= 1e-3 or not sol.constraint_active


class TestSolveSeeded:
    def test_kappa_zero_returns_eigenvector(self, t3):
        s = seed_vector(t3, {0}, {2})
        sol = solve_seeded(t3, s, kappa=0.0)
        assert not sol.constraint_active
        assert sol.objective == pytest.approx(0.5, abs=1e-9)
        assert sol.alpha == sol.lambda1
        assert sol.correlation >= 0.0

    def test_single_edge_constraint_inactive(self, single_edge):
        s = seed_vector(single_edge, {0}, {1})
        sol = solve_seeded(single_edge, s, kappa=0.7)
        assert not sol.constraint_active
        np.testing.assert_allclose(np.abs(sol.x), np.abs(s.values), rtol=1e-8)
        assert sol.correlation == pytest.approx(1.0, abs=1e-8)

    def test_t3_active_constraint_and_grid_optimality(self, t3):
        s = seed_vector(t3, {0}, {2})
        sol = solve_seeded(t3, s, kappa=0.9, eps=1e-3)
        assert sol.constraint_active
        assert abs(sol.correlation - 0.9) <= 1e-3
        assert t3.degrees @ (sol.x**2) == pytest.approx(1.0, abs=1e-8)
        assert sol.x @ (t3.degrees * s.values) >= 0
        assert sol.alpha < sol.lambda1
        # family optimality at the achieved correlation: the returned x must
        # be the best family member among those reaching the same correlation
        best_obj, _ = grid_search_minimum(t3, {0}, {2}, kappa=sol.correlation)
        assert sol.objective <= best_obj * (1 + 1e-4) + 1e-12

    def test_invalid_kappa(self, t3):
        s = seed_vector(t3, {0}, {2})
        with pytest.raises(SolverError):
            solve_seeded(t3, s, kappa=1.0)
        with pytest.raises(SolverError):
            solve_seeded(t3, s, kappa=-0.1)

    def test_correlation_near_one_is_reached(self, t3):
        # c reaches kappa only at alpha of order -1e5 on T3
        s = seed_vector(t3, {0}, {2})
        kappa = 1 - 1e-12
        sol = solve_seeded(t3, s, kappa=kappa, eps=1e-9)
        assert sol.constraint_active
        assert abs(sol.correlation - kappa) <= 1e-9
        assert t3.degrees @ (sol.x**2) == pytest.approx(1.0, abs=1e-12)

    def test_eps_below_float_resolution_is_unreachable(self, t3):
        s = seed_vector(t3, {0}, {2})
        with pytest.raises(SolverError, match="unreachable"):
            solve_seeded(t3, s, kappa=0.9, eps=1e-18)

    def test_exact_landing_does_not_certify_below_float_resolution(self, t3):
        # The certifying solve often lands on kappa bit for bit on T3, but c
        # carries a few ulps of rounding, so eps = 1e-18 is never certified.
        s = seed_vector(t3, {0}, {2})
        for kappa in np.linspace(0.75, 0.99, 25):
            with pytest.raises(SolverError, match="unreachable"):
                solve_seeded(t3, s, kappa=float(kappa), eps=1e-18)

    def test_feasibility_and_normalization_random(self):
        for seed in range(8):
            g = make_random_graph(25, 60, seed=seed, weighted=seed % 2 == 1)
            s = seed_vector(g, {0}, {1})
            for kappa in (0.3, 0.9):
                sol = solve_seeded(g, s, kappa=kappa)
                assert g.degrees @ (sol.x**2) == pytest.approx(1.0, abs=1e-8)
                assert sol.correlation >= kappa - 1e-3
                assert sol.objective == pytest.approx(
                    rayleigh_quotient(g, sol.x), rel=1e-12
                )

    def test_balanced_graph_kappa_zero(self, balanced_path):
        s = seed_vector(balanced_path, {0, 1}, {2})
        sol = solve_seeded(balanced_path, s, kappa=0.0)
        assert sol.lambda1 <= 1e-10
        assert sol.objective <= 1e-10


def solve_on(g, s, kappa, source=None, lanczos_eps=None, **kwargs):
    """``solve_seeded`` on the spectral source its graph size selects, or on
    Lanczos when ``source`` is "lanczos"; returns the solution and the CG
    iterations of each ``spectral.solve_shifted`` call it made. With
    ``lanczos_eps``, Lanczos runs to that eps instead of the solver's."""
    calls = []
    solve, eig = spectral.solve_shifted, spectral.smallest_eigenpair
    root = spectral.lanczos_root

    def counting(*args, **kw):
        out = solve(*args, **kw)
        calls.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "solve_shifted", counting)
        if source == "lanczos":
            mp.setattr(spectral, "smallest_eigenpair",
                       lambda g: replace(eig(g), spectrum=None))
        if lanczos_eps is not None:
            mp.setattr(spectral, "lanczos_root",
                       lambda *args: root(*args[:-1], lanczos_eps))
        sol = solve_seeded(g, s, kappa=kappa, **kwargs)
    return sol, calls


@contextmanager
def recorded_brackets():
    """Collects (alpha, c_lo, c_hi) of every ``correlation_bracket`` that
    ``lanczos_root`` computes inside the block."""
    brackets = []
    bracket = spectral.correlation_bracket

    def recording(gauss, radau, alpha):
        out = bracket(gauss, radau, alpha)
        brackets.append((alpha, *out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "correlation_bracket", recording)
        yield brackets


NEARLY_ORTHOGONAL = "nearly D-orthogonal"
DEGENERATE = "degenerate bottom eigenspace"


class TestSolverWarnings:
    @pytest.fixture
    def positive_cycle(self):
        """All-positive 4-cycle a-b-c-d-a: lambda1 = 0 with eigenvector 1,
        and e_a - e_c lies in the eigenspace of the double eigenvalue 1."""
        return build_graph([("a", "b", 1.0), ("b", "c", 1.0),
                            ("c", "d", 1.0), ("d", "a", 1.0)])

    def test_opposite_corners_of_positive_cycle(self, positive_cycle):
        s = seed_vector(positive_cycle, {0}, {2})
        sol = solve_seeded(positive_cycle, s, kappa=0.5)
        assert not sol.constraint_active
        assert sol.correlation == pytest.approx(1.0, abs=1e-9)
        assert any(NEARLY_ORTHOGONAL in w for w in sol.warnings)
        assert any(DEGENERATE in w for w in sol.warnings)

    def test_lower_end_inside_guard_band(self, positive_cycle):
        # alpha_lo(1e-4) = -5e-9 lies above lambda1 - delta = -1e-7, so the
        # bracket starts collapsed at the guard.
        s = seed_vector(positive_cycle, {0}, {2})
        lam1 = smallest_eigenpair(positive_cycle).lambda1
        assert shift_lower_bound(1e-4) > lam1 - SHIFT_GUARD
        sol, calls = solve_on(positive_cycle, s, 1e-4)
        assert not sol.constraint_active
        assert len(calls) == 1
        assert sol.correlation == pytest.approx(1.0, abs=1e-9)
        assert any(DEGENERATE in w for w in sol.warnings)

    def test_degenerate_exit_takes_one_solve(self, positive_cycle):
        sol, calls = solve_on(positive_cycle, seed_vector(positive_cycle, {0}, {2}), 0.5)
        assert not sol.constraint_active
        assert calls == [sol.cg_iterations] == [1]

    def test_balanced_signed_cycle(self):
        g = build_graph([("a", "b", 1.0), ("b", "c", -1.0),
                         ("c", "d", 1.0), ("d", "a", -1.0)])
        sol = solve_seeded(g, seed_vector(g, {0}, {1}), kappa=0.5)
        assert not sol.constraint_active
        assert any(NEARLY_ORTHOGONAL in w for w in sol.warnings)
        assert any(DEGENERATE in w for w in sol.warnings)


def _seeded_graph(n, extra, graph_seed, weighted, neg_fraction, two_sided):
    """A random signed graph and a seed on one or two random node sets."""
    g = make_random_graph(n, extra, seed=graph_seed, weighted=weighted,
                          neg_fraction=neg_fraction)
    rng = np.random.default_rng(graph_seed)
    nodes = rng.permutation(g.node_count)
    k1 = int(rng.integers(1, g.node_count // 2 + 1))
    k2 = int(rng.integers(1, g.node_count // 2 + 1)) if two_sided else 0
    return g, seed_vector(g, set(nodes[:k1].tolist()), set(nodes[k1:k1 + k2].tolist()))


def _dense_correlation(g, s, alpha):
    rootd = np.sqrt(g.degrees)
    b = rootd * s.values
    y = np.linalg.solve(dense_normalized_laplacian(g) - alpha * np.eye(g.node_count), b)
    return abs(float(y @ b)) / (np.linalg.norm(y) * np.linalg.norm(b))


class TestShiftLowerBound:
    def test_bound_is_attained_on_single_edge(self, single_edge):
        # Lnorm of one edge has eigenvectors u0, u2 for eigenvalues 0 and 2.
        # The Kantorovich inequality is an equality for the unit vector with
        # weights sqrt(-a / (2 - 2a)) on u0 and sqrt((2 - a) / (2 - 2a)) on u2,
        # so c(alpha_lo) is exactly kappa there, and any other constant fails.
        u0 = np.array([1.0, 1.0]) / np.sqrt(2)
        u2 = np.array([1.0, -1.0]) / np.sqrt(2)
        for kappa in (1e-3, 0.3, 0.5, 0.9, 0.999999):
            a = shift_lower_bound(kappa)
            b = np.sqrt(-a / (2 - 2 * a)) * u0 + np.sqrt((2 - a) / (2 - 2 * a)) * u2
            s = SeedVector(values=b / np.sqrt(single_edge.degrees), support=(0, 1))
            c = _dense_correlation(single_edge, s, a)
            assert c == pytest.approx(kappa, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(4, 60),
        extra=st.integers(0, 120),
        graph_seed=st.integers(0, 2**32 - 1),
        weighted=st.booleans(),
        neg_fraction=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        two_sided=st.booleans(),
        kappa=st.floats(1e-6, 0.999999),
    )
    def test_bracket_lower_end_meets_kappa(
        self, n, extra, graph_seed, weighted, neg_fraction, two_sided, kappa
    ):
        g, s = _seeded_graph(n, extra, graph_seed, weighted, neg_fraction, two_sided)
        alpha_lo = shift_lower_bound(kappa)
        assert _dense_correlation(g, s, alpha_lo) >= kappa - 1e-12
        # on (nearly) balanced graphs with kappa below about 4.5e-4, alpha_lo
        # lies inside the guard band below lambda1 and the bracket starts there
        sol = solve_seeded(g, s, kappa=kappa)
        assert sol.alpha >= min(alpha_lo, sol.lambda1 - SHIFT_GUARD)


SOURCES = ("dense", "lanczos")


def _assert_matches_dense(g, s, kappa, sol, calls, eps):
    """The solution is the dense solve of (Lnorm - alpha I) y = D^{1/2} s at
    the returned alpha, made by exactly one certifying CG solve."""
    if sol.search_steps == 0:  # the bottom eigenvector meets kappa
        assert not sol.constraint_active and calls == []
        assert sol.correlation >= kappa
        return
    assert calls == [sol.cg_iterations]
    rootd = np.sqrt(g.degrees)
    lnorm = dense_normalized_laplacian(g)
    y = np.linalg.solve(lnorm - sol.alpha * np.eye(g.node_count), rootd * s.values)
    np.testing.assert_allclose(sol.x, y / rootd / np.linalg.norm(y), rtol=1e-8, atol=1e-8)
    assert sol.alpha < sol.lambda1
    if sol.constraint_active:
        assert abs(sol.correlation - kappa) <= eps
    else:
        assert sol.correlation >= kappa - eps
        assert any(DEGENERATE in w for w in sol.warnings)


class TestSecularSources:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(4, 60),
        extra=st.integers(0, 120),
        graph_seed=st.integers(0, 2**32 - 1),
        weighted=st.booleans(),
        neg_fraction=st.sampled_from([0.0, 0.2, 0.5]),
        two_sided=st.booleans(),
        kappa=st.floats(0.0, 0.999999, exclude_min=True),
    )
    # the bracket stop moves this Lanczos root off the dense one, inside eps
    @example(n=4, extra=60, graph_seed=4, weighted=False, neg_fraction=0.2,
             two_sided=False, kappa=0.998046875)
    def test_both_sources_match_dense_solve(
        self, n, extra, graph_seed, weighted, neg_fraction, two_sided, kappa
    ):
        g, s = _seeded_graph(n, extra, graph_seed, weighted, neg_fraction, two_sided)
        eps = 1e-6
        sols = {}
        for source in SOURCES:
            sols[source], calls = solve_on(g, s, kappa, source, eps=eps, cg_tol=1e-11)
            _assert_matches_dense(g, s, kappa, sols[source], calls, eps=eps)
        # The bracket stop pins the Lanczos root's true correlation to eps / 2.
        alpha = sols["lanczos"].alpha
        if sols["lanczos"].constraint_active:
            assert abs(_dense_correlation(g, s, alpha) - kappa) <= eps / 2 + 1e-12
        # At an eps the bracket cannot meet, the Ritz residual stop governs
        # and the Lanczos root is the dense one.
        sol, _ = solve_on(g, s, kappa, "lanczos", eps=eps, cg_tol=1e-11,
                          lanczos_eps=2 * spectral._C_RESOLUTION)
        assert sol.alpha == pytest.approx(sols["dense"].alpha, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("edges, s1, s2, kappa", [
        # degenerate: e_a - e_c spans an eigenspace of the positive 4-cycle
        ([("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)], {0}, {2}, 0.5),
        ([("a", "b", 1), ("b", "c", -1), ("c", "d", 1), ("d", "a", -1)], {0}, {1}, 0.5),
        ([("a", "b", 1)], {0}, {1}, 0.7),
        # inactive: the bottom eigenvector of T3 meets kappa = 0
        ([("a", "b", 1), ("a", "c", 1), ("b", "c", -1)], {0}, {2}, 0.0),
    ])
    def test_degenerate_and_inactive_cases(self, source, edges, s1, s2, kappa):
        g = build_graph(edges)
        s = seed_vector(g, s1, s2)
        sol, calls = solve_on(g, s, kappa, source)
        assert not sol.constraint_active
        _assert_matches_dense(g, s, kappa, sol, calls, eps=1e-3)

    def test_ritz_value_below_bracket_raises(self, t3):
        # An eigenvalue estimate above the true lambda1 = 0.5 puts Ritz values
        # below the shift bracket.
        eig = smallest_eigenpair(t3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "smallest_eigenpair",
                       lambda g: replace(eig, lambda1=0.9, spectrum=None))
            with pytest.raises(SolverError, match="Ritz value"):
                solve_seeded(t3, seed_vector(t3, {0}, {2}), kappa=0.9)

    def test_lanczos_matches_reference_bisection(self):
        g, truth = generate(SynthParams(pairs=16, band_size=20, eta=0.01, rng_seed=3))
        assert g.node_count > spectral.DENSE_EIG_LIMIT
        band1, band2 = truth.pairs[0]
        s = seed_vector(g, {g.index_of(min(band1))}, {g.index_of(min(band2))})
        for kappa in (0.2, 0.5, 0.9):
            sol, calls = solve_on(g, s, kappa)
            assert calls == [sol.cg_iterations]
            eps = 1e-3
            alpha_ref, c_ref, x_ref = bisect_shift(g, s, kappa, eps=eps)
            # the root lies on the side of the bisection's shift that c says
            assert (sol.alpha - alpha_ref) * (c_ref - kappa) >= 0
            # and inside the eps window of the reference correlation
            assert abs(correlation_at(g, sol.alpha, s)[0] - kappa) <= eps
            ours, ref = fast_sweep(g, sol.x), fast_sweep(g, x_ref)
            assert (ours.c1, ours.c2) == (ref.c1, ref.c2)


@pytest.fixture(scope="module")
def planted():
    """The 640-node planted graph of ``test_lanczos_matches_reference_bisection``
    with its eigenpair cached, and a seed on its first pair."""
    g, truth = generate(SynthParams(pairs=16, band_size=20, eta=0.01, rng_seed=3))
    band1, band2 = truth.pairs[0]
    smallest_eigenpair(g)
    return g, seed_vector(g, {g.index_of(min(band1))}, {g.index_of(min(band2))})


class TestCorrelationBracket:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(4, 60),
        extra=st.integers(0, 120),
        graph_seed=st.integers(0, 2**32 - 1),
        weighted=st.booleans(),
        neg_fraction=st.sampled_from([0.0, 0.2, 0.5]),
        two_sided=st.booleans(),
        kappa=st.floats(0.0, 0.999999, exclude_min=True),
    )
    def test_bracket_holds_dense_correlation(
        self, n, extra, graph_seed, weighted, neg_fraction, two_sided, kappa
    ):
        g, s = _seeded_graph(n, extra, graph_seed, weighted, neg_fraction, two_sided)
        with recorded_brackets() as brackets:
            solve_on(g, s, kappa, "lanczos")
        for alpha, c_lo, c_hi in brackets:
            c = _dense_correlation(g, s, alpha)
            assert c_lo - 1e-12 <= c <= c_hi + 1e-12

    @staticmethod
    def lanczos_run(g, s, kappa, eps, bracket=True):
        """Matvecs of ``lanczos_root`` at ``eps`` (without the bracket stop
        if ``bracket`` is False) in a solve certified to 1e-3, and the
        brackets it computed."""
        matvecs = []
        apply = spectral.normalized_laplacian_apply

        def counting(*args):
            matvecs.append(1)
            return apply(*args)

        with recorded_brackets() as brackets, pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "normalized_laplacian_apply", counting)
            if not bracket:
                mp.setattr(spectral, "correlation_bracket", lambda *a: (-np.inf, np.inf))
            sol, _ = solve_on(g, s, kappa, lanczos_eps=eps)
        assert sol.lanczos_steps == len(matvecs)
        return len(matvecs), brackets

    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.9])
    def test_bracket_stop_saves_steps(self, planted, kappa):
        g, s = planted
        residual_only, _ = self.lanczos_run(g, s, kappa, 1e-3, bracket=False)
        steps = {}
        for eps in (1e-3, 1e-6, 1e-10, 1e-14):
            steps[eps], brackets = self.lanczos_run(g, s, kappa, eps)
            assert steps[eps] <= residual_only
            # Lanczos stops at the first bracket inside eps / 2 of kappa.
            inside = [abs(lo - kappa) <= eps / 2 and abs(hi - kappa) <= eps / 2
                      for _, lo, hi in brackets]
            assert not any(inside[:-1])
            if steps[eps] < residual_only:
                assert inside[-1]
        assert steps[1e-3] < steps[1e-14]


class TestWorkDone:
    """Exact counts of the work a warm query does, so that a change in work
    fails here rather than waiting for a wall-time benchmark."""

    @pytest.mark.parametrize("kappa, matvecs", [(0.2, 70), (0.5, 28), (0.9, 15)])
    def test_laplacian_applications_per_warm_query(self, planted, monkeypatch,
                                                   kappa, matvecs):
        g, s = planted
        calls = []
        apply = spectral.laplacian_apply

        def counting(*args):
            calls.append(1)
            return apply(*args)

        monkeypatch.setattr(spectral, "laplacian_apply", counting)
        sol = solve_seeded(g, s, kappa=kappa)
        assert len(calls) == sol.lanczos_steps + sol.cg_iterations == matvecs


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about 0.3 s per fresh interpreter; the secular root
    # needs none of it.
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, signedpolar; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
