import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
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
    build_graph,
    fast_sweep,
    generate,
    generate_scaled,
    laplacian_apply,
    random_signed_graph,
    seed_vector,
    smallest_eigenpair,
    solve_seeded,
    solve_shifted,
)
from signedpolar import spectral
from signedpolar.graph import EdgeList, SeedVector, SignedGraph
from signedpolar.oracle import (
    bisect_shift,
    correlation_at,
    grid_search_minimum,
    rayleigh_quotient,
)
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


def _sequential_apply(g, x):
    """L x with the two passes over U one after the other."""
    u = g.adjacency
    return g.degrees * x - (u @ x + u.T @ x)


def _wide_graph(n, per_node, rng_seed):
    """A weighted signed graph on ``n`` nodes with about ``per_node * n``
    edges, built from arrays through ``EdgeList``."""
    rng = np.random.default_rng(rng_seed)
    a, b = rng.integers(0, n, size=(2, per_node * n))
    keep = a != b
    key = np.unique(np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep])
    w = rng.uniform(0.5, 2.0, len(key)) * np.where(rng.random(len(key)) < 0.5, -1, 1)
    return build_graph(EdgeList(list(range(n)), key // n, key % n, w))


@pytest.fixture(scope="module")
def wide_planted():
    """A planted graph with more stored entries than _CONCURRENT_NNZ, its
    eigenpair uncached, and a seed on its first pair."""
    g, truth = generate_scaled(12000, 24.0, rng_seed=1)
    assert g.adjacency.nnz >= spectral._CONCURRENT_NNZ
    band1, band2 = truth.pairs[0]
    return g, seed_vector(g, {g.index_of(min(band1))}, {g.index_of(min(band2))})


class TestSideBySidePasses:
    """From _CONCURRENT_NNZ stored entries laplacian_apply runs its row pass
    on a worker thread; the result must keep the sequential bits."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 60),
        per_node=st.integers(0, 4),
        graph_seed=st.integers(0, 2**32 - 1),
        weighted=st.booleans(),
    )
    def test_side_by_side_matches_sequential_and_dense(self, n, per_node,
                                                       graph_seed, weighted):
        g = make_random_graph(n, per_node * n, seed=graph_seed, weighted=weighted)
        x = np.random.default_rng(graph_seed).standard_normal(g.node_count)
        a = g.adjacency.toarray()
        a += a.T  # adjacency holds the upper triangle
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_CONCURRENT_NNZ", 0)
            y = laplacian_apply(g, x)
        assert np.array_equal(y, _sequential_apply(g, x))
        np.testing.assert_allclose(y, (np.diag(g.degrees) - a) @ x, rtol=1e-12, atol=1e-12)

    def test_above_the_constant_keeps_the_bits(self):
        g = _wide_graph(30000, 6, rng_seed=4)
        assert g.adjacency.nnz >= spectral._CONCURRENT_NNZ
        x = np.random.default_rng(4).standard_normal(g.node_count)
        assert np.array_equal(laplacian_apply(g, x), _sequential_apply(g, x))
        assert any(t.name.startswith("laplacian-rows") for t in threading.enumerate())

    def test_racing_first_calls_make_one_worker(self, wide_planted, monkeypatch):
        # More callers than cores and a short switch interval race for the
        # first matvec; each of 20 rounds must make the worker once.
        g, _ = wide_planted
        x = np.random.default_rng(3).standard_normal(g.node_count)
        want = _sequential_apply(g, x)
        made = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(spectral, "ThreadPoolExecutor", Recorded)
        barrier = threading.Barrier(6)

        def apply():
            barrier.wait()
            return laplacian_apply(g, x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        results = []
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                for _ in range(20):
                    monkeypatch.setattr(spectral, "_worker", None)
                    futures = [pool.submit(apply) for _ in range(6)]
                    results += [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
            for worker in made:
                worker.shutdown()
        assert len(made) == 20
        assert all(np.array_equal(y, want) for y in results)

    def test_concurrent_callers_get_a_lone_callers_bits(self, wide_planted):
        g, s = wide_planted
        lone = solve_seeded(g, s, kappa=0.5)
        del g._cache["eig"]  # both threads solve the eigenpair too
        barrier = threading.Barrier(2)

        def solve():
            barrier.wait()
            return solve_seeded(g, s, kappa=0.5)

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(solve) for _ in range(2)]
            results = [f.result(timeout=120) for f in futures]
        for sol in results:
            np.testing.assert_array_equal(sol.x, lone.x)
            assert (sol.alpha, sol.lanczos_steps) == (lone.alpha, lone.lanczos_steps)

    def test_forked_child_makes_its_own_worker(self, wide_planted):
        g, _ = wide_planted
        x = np.random.default_rng(7).standard_normal(g.node_count)
        want = laplacian_apply(g, x)  # the parent's worker is running now
        child = multiprocessing.get_context("fork").Process(
            target=_exit_zero_if_same, args=(g, x, want))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            pytest.fail("the forked child's matvec did not finish")
        assert child.exitcode == 0

    def test_worker_does_not_outlive_the_interpreter(self):
        src = str(Path(spectral.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import numpy as np\n"
            "from signedpolar import generate_scaled, laplacian_apply\n"
            "g, _ = generate_scaled(12000, 24.0, rng_seed=1)\n"
            "laplacian_apply(g, np.ones(g.node_count))\n"
        )
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0


def _exit_zero_if_same(g, x, want):
    sys.exit(0 if np.array_equal(laplacian_apply(g, x), want) else 3)


class TestSmallestEigenpair:
    def test_t3_value(self, t3):
        eig = smallest_eigenpair(t3)
        assert eig.lambda1 == pytest.approx(0.5, abs=1e-10)
        assert eig.residual <= 1e-8
        assert eig.lanczos_steps == 0  # dense path

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

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(spectral.DENSE_EIG_LIMIT + 1, 600),
        per_node=st.integers(0, 4),
        graph_seed=st.integers(0, 2**32 - 1),
        neg_fraction=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    )
    def test_matrix_free_pair_matches_dense(self, n, per_node, graph_seed, neg_fraction):
        g = make_random_graph(n, per_node * n, seed=graph_seed, weighted=True,
                              neg_fraction=neg_fraction)
        eig = smallest_eigenpair(g)
        assert eig.spectrum is None and eig.residual <= spectral.EIG_TOL
        vals, vecs = np.linalg.eigh(dense_normalized_laplacian(g))
        assert eig.lambda1 == pytest.approx(vals[0], abs=1e-9)
        if vals[1] - vals[0] >= 1e-3:
            # |v1' D v1_dense| with v1_dense = vecs[:, 0] / sqrt(d)
            assert abs(eig.v1 @ (np.sqrt(g.degrees) * vecs[:, 0])) >= 1 - 1e-6

    def test_breakdown_on_complete_graph(self, monkeypatch):
        # Lnorm of the complete positive graph has the eigenvalues 0 and
        # n / (n - 1) only, so Lanczos breaks down at its second step.
        n = spectral.DENSE_EIG_LIMIT + 8
        u, v = np.triu_indices(n, 1)
        g = SignedGraph(range(n), u, v, np.ones(len(u)))
        calls = counted_matvecs(monkeypatch)
        eig = smallest_eigenpair(g)
        assert abs(eig.lambda1) <= 1e-12 and eig.residual <= spectral.EIG_TOL
        assert len(calls) == eig.lanczos_steps + 1 <= 3

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

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
    def test_tolerance_that_is_not_positive_is_rejected(self, t3, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_shifted(t3, -0.5, np.array([1.0, -1.0, 0.5]), tol=tol)

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

    def test_start_at_an_exact_solution_takes_no_iteration(self, t3):
        # b is made by the residual's own arithmetic, so it is exactly zero
        for x0, alpha in ((np.array([1.0, -2.0, 3.0]), -0.5), (np.ones(3), 0.25)):
            b = laplacian_apply(t3, x0) - alpha * (t3.degrees * x0)
            x, iters = solve_shifted(t3, alpha, b, tol=1e-300, x0=x0)
            assert iters == 0
            np.testing.assert_array_equal(x, x0)

    @given(n=st.sampled_from([20, 30, 40]), per_node=st.sampled_from([2, 3]),
           graph_seed=st.integers(0, 2**16), log_tol=st.floats(-12, -8),
           start_seed=st.none() | st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_any_start_meets_tol_in_true_residual_or_raises(
        self, n, per_node, graph_seed, log_tol, start_seed
    ):
        # CG tests its recursive residual. Below about 1e-14 at these shifts
        # that residual parts from the true one and CG can return a solution
        # that misses tol (see test_true_residual_floor_is_not_certified).
        g = random_signed_graph(n, per_node * n, rng_seed=graph_seed, weighted=True)
        s = seed_vector(g, {0}, {1})
        alpha = solve_seeded(g, s, kappa=0.9).alpha
        b = g.degrees * s.values
        x0 = None
        if start_seed is not None:
            x0 = np.random.default_rng(start_seed).standard_normal(g.node_count)
        tol = 10.0**log_tol
        try:
            x, _ = solve_shifted(g, alpha, b, tol=tol, x0=x0)
        except ConvergenceError as exc:
            assert exc.residual >= 0
        else:
            r = b - (laplacian_apply(g, x) - alpha * (g.degrees * x))
            assert np.linalg.norm(r) <= tol * np.linalg.norm(b)

    @pytest.mark.xfail(strict=True, reason="CG certifies its recursive residual, "
                       "which parts from the true one below float resolution")
    def test_true_residual_floor_is_not_certified(self):
        # 1e-6 below lambda1 the true relative residual stops near 1e-11,
        # while the recursive one falls to any tol.
        g = random_signed_graph(20, 40, rng_seed=0, weighted=True)
        alpha = smallest_eigenpair(g).lambda1 - 1e-6
        b = np.random.default_rng(0).standard_normal(g.node_count)
        try:
            x, _ = solve_shifted(g, alpha, b, tol=1e-13)
        except ConvergenceError:
            return
        r = b - (laplacian_apply(g, x) - alpha * (g.degrees * x))
        assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(b)


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

    @pytest.mark.parametrize("eps", [0.0, np.nan])
    def test_eps_that_is_not_positive_is_rejected(self, t3, eps):
        # a nan eps would pass every certificate
        s = seed_vector(t3, {0}, {2})
        with pytest.raises(SolverError, match="eps must be positive"):
            solve_seeded(t3, s, kappa=0.9, eps=eps)

    @pytest.mark.parametrize("source", ["dense", "lanczos"])
    def test_nan_cg_tol_is_rejected(self, t3, source):
        # a nan tolerance would run Lanczos to its 20n-step cap
        s = seed_vector(t3, {0}, {2})
        with pytest.raises(SolverError, match="cg_tol must be positive"):
            solve_on(t3, s, 0.9, source, cg_tol=np.nan)

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


def solve_on(g, s, kappa, source=None, **kwargs):
    """``solve_seeded`` on the spectral source its graph size selects, or on
    Lanczos when ``source`` is "lanczos"; returns the solution and the CG
    iterations of each ``spectral.solve_shifted`` call it made."""
    calls = []
    solve, eig = spectral.solve_shifted, spectral.smallest_eigenpair

    def counting(*args, **kw):
        out = solve(*args, **kw)
        calls.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "solve_shifted", counting)
        if source == "lanczos":
            mp.setattr(spectral, "smallest_eigenpair",
                       lambda g: replace(eig(g), spectrum=None))
        sol = solve_seeded(g, s, kappa=kappa, **kwargs)
    return sol, calls


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
            s = SeedVector(values=b / np.sqrt(single_edge.degrees))
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
    # a Lanczos root that a stop at eps once left off the dense one
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
        # Lanczos runs until its Krylov solution meets cg_tol, so its root
        # is the dense one.
        assert sols["lanczos"].alpha == pytest.approx(sols["dense"].alpha,
                                                      rel=1e-9, abs=1e-12)

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

    def test_eigenvalue_estimate_just_too_high_raises(self, planted):
        # 1e-3 above lambda1 the seeded run's Ritz values fall below the
        # bracket end before its Krylov solution converges.
        g, s = planted
        eig = smallest_eigenpair(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "smallest_eigenpair",
                       lambda g: replace(eig, lambda1=eig.lambda1 + 1e-3))
            with pytest.raises(SolverError, match="eigenvalue estimate is too high"):
                solve_seeded(g, s, kappa=0.5)

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


def counted_matvecs(monkeypatch):
    """A list that grows by one on every ``spectral.laplacian_apply``."""
    calls = []
    apply = spectral.laplacian_apply

    def counting(*args):
        calls.append(1)
        return apply(*args)

    monkeypatch.setattr(spectral, "laplacian_apply", counting)
    return calls


class TestWorkDone:
    """Exact counts of the work a warm query does, so that a change in work
    fails here rather than waiting for a wall-time benchmark."""

    @pytest.mark.parametrize("kappa, matvecs", [(0.2, 48), (0.5, 24), (0.9, 14)])
    def test_laplacian_applications_per_warm_query(self, planted, monkeypatch,
                                                   kappa, matvecs):
        # Lanczos steps, the residual of their Krylov solution and CG's steps.
        g, s = planted
        calls = counted_matvecs(monkeypatch)
        sol = solve_seeded(g, s, kappa=kappa)
        assert len(calls) == sol.lanczos_steps + 1 + sol.cg_iterations == matvecs

    def test_laplacian_applications_per_eigensolve(self, planted, monkeypatch):
        # Lanczos steps and the true residual of the Ritz vector.
        g, _ = planted
        monkeypatch.delitem(g._cache, "eig")
        calls = counted_matvecs(monkeypatch)
        eig = smallest_eigenpair(g)
        assert len(calls) == eig.lanczos_steps + 1 == 45

    def test_capped_eigensolve_rebuilds_the_same_pair(self, planted, monkeypatch):
        # Past the cap a second pass remakes the steps it did not keep, from
        # the last two kept vectors, bit for bit.
        g, _ = planted
        full = smallest_eigenpair(g)
        monkeypatch.delitem(g._cache, "eig")
        monkeypatch.setattr(spectral, "_BASIS_CAP", 8)
        calls = counted_matvecs(monkeypatch)
        capped = smallest_eigenpair(g)
        k = capped.lanczos_steps
        assert k == full.lanczos_steps > 8
        assert capped.lambda1 == full.lambda1
        np.testing.assert_array_equal(capped.v1, full.v1)
        assert len(calls) - (k + 1) == k - 8 + 1

    @pytest.mark.parametrize("kappa", [0.5, 0.9])
    def test_matrix_free_warm_query_confirms_the_krylov_start(self, planted,
                                                             monkeypatch, kappa):
        g, s = planted
        calls = counted_matvecs(monkeypatch)
        sol = solve_seeded(g, s, kappa=kappa)
        assert sol.constraint_active and sol.lanczos_steps > 0
        assert (len(calls), sol.cg_iterations) == (sol.lanczos_steps + 2, 1)

    @pytest.mark.parametrize("kappa", [0.5, 0.9])
    def test_dense_warm_query_confirms_the_spectral_start(self, planted_dense,
                                                          monkeypatch, kappa):
        # One residual of the spectral start and one CG step that confirms it.
        g, s = planted_dense
        calls = counted_matvecs(monkeypatch)
        sol = solve_seeded(g, s, kappa=kappa)
        assert sol.constraint_active
        assert (len(calls), sol.cg_iterations, sol.lanczos_steps) == (2, 1, 0)

    @pytest.mark.parametrize("cap", [2, 8])
    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.9])
    def test_capped_basis_rebuilds_the_same_solution(self, planted, monkeypatch,
                                                     kappa, cap):
        # Past the cap the Krylov solution remakes the vectors it did not
        # keep, as the eigensolve does, so x is the uncapped one bit for bit
        # and one CG step certifies it: k Lanczos steps, k - cap + 1 to
        # rebuild, the start's residual and that step.
        g, s = planted
        full = solve_seeded(g, s, kappa=kappa)
        monkeypatch.setattr(spectral, "_BASIS_CAP", cap)
        calls = counted_matvecs(monkeypatch)
        capped = solve_seeded(g, s, kappa=kappa)
        k = capped.lanczos_steps
        assert k == full.lanczos_steps > cap
        np.testing.assert_array_equal(capped.x, full.x)
        assert (capped.alpha, capped.correlation) == (full.alpha, full.correlation)
        assert capped.cg_iterations == 1
        assert len(calls) == k + (k - cap + 1) + 2

    @pytest.mark.parametrize("kappa", [0.05, 0.1, 0.2])
    def test_root_finds_stop_at_float_resolution(self, planted, monkeypatch, kappa):
        # Over 30 or more Ritz pairs rounding holds |c - kappa| above
        # _C_RESOLUTION at the root; the Newton correction still vanishes,
        # while bisecting the bracket shut took over 50 evaluations here.
        g, s = planted
        evaluations = []
        root = spectral.secular_root

        def recording(*args):
            out = root(*args)
            evaluations.append(out[1])
            return out

        monkeypatch.setattr(spectral, "secular_root", recording)
        sol = solve_seeded(g, s, kappa=kappa)
        assert sol.lanczos_steps == len(evaluations) > 30
        assert max(evaluations) <= 8


@pytest.fixture(scope="module")
def planted_dense():
    """A 320-node planted graph on the dense eigensolver path, with its
    eigenpair cached, and a seed on its first pair."""
    g, truth = generate(SynthParams(pairs=8, band_size=20, eta=0.05, rng_seed=3))
    assert g.node_count <= spectral.DENSE_EIG_LIMIT
    band1, band2 = truth.pairs[0]
    assert smallest_eigenpair(g).spectrum is not None
    return g, seed_vector(g, {g.index_of(min(band1))}, {g.index_of(min(band2))})


@pytest.mark.parametrize("kappa", [0.2, 0.5, 0.9, 0.99])
def test_dense_objective_matches_rayleigh_quotient(planted_dense, kappa):
    # From the spectral start the CG residual is not orthogonal to raw, but
    # it is rounding, so the closed-form objective stays exact to 1e-12.
    g, s = planted_dense
    sol = solve_seeded(g, s, kappa=kappa)
    assert sol.constraint_active and sol.lanczos_steps == 0
    assert sol.objective == pytest.approx(rayleigh_quotient(g, sol.x), rel=1e-12)


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about 0.3 s per fresh interpreter; the secular root
    # needs none of it.
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, signedpolar; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
