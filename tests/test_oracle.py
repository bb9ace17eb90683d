import itertools

import numpy as np
import pytest

from signedpolar import seed_vector, smallest_eigenpair, solve_seeded
from signedpolar.oracle import (
    OracleError,
    beta,
    brute_force_cheeger,
    correlation_at,
    kkt_check,
    verify_approximation,
    verify_relaxation,
)
from conftest import dense_normalized_laplacian, make_random_graph, scratch_beta


def reference_cheeger(g, s1, s2, k):
    """Pure-python reference enumeration (independent of the vectorized path)."""
    free = [i for i in range(g.node_count) if i not in s1 | s2]
    vol_seed = sum(g.degrees[i] for i in s1 | s2)
    best = None
    feasible = 0
    for assignment in itertools.product((-1, 0, 1), repeat=len(free)):
        c1, c2 = set(s1), set(s2)
        for node, a in zip(free, assignment):
            if a == 1:
                c1.add(node)
            elif a == -1:
                c2.add(node)
        vol = sum(g.degrees[i] for i in c1 | c2)
        if vol > k * vol_seed * (1 + 1e-12):
            continue
        feasible += 1
        b = scratch_beta(g, c1, c2)
        if best is None or b < best:
            best = b
    return best, feasible


class TestBruteForce:
    def test_t3_seeded(self, t3):
        cert = brute_force_cheeger(t3, {0}, {2}, k=3)
        assert cert.h_value == pytest.approx(1.0 / 3.0)
        assert cert.argmin.c1 == (0, 1) and cert.argmin.c2 == (2,)
        assert cert.feasible_count == 3
        # the minimal feasible solution (just the seeds) scores 1
        assert beta(t3, {0}, {2}) == pytest.approx(1.0)

    def test_balanced_split_fully_seeded(self, balanced_path):
        cert = brute_force_cheeger(balanced_path, {0, 1}, {2}, k=1)
        assert cert.h_value == 0.0

    def test_k_below_one_infeasible(self, t3):
        with pytest.raises(OracleError, match="feasible"):
            brute_force_cheeger(t3, {0}, {2}, k=0.5)

    def test_argmin_beta_recomputes_exactly(self):
        for seed in range(5):
            g = make_random_graph(8, 12, seed=seed, weighted=seed % 2 == 0)
            cert = brute_force_cheeger(g, {0}, {1}, k=3)
            assert beta(g, cert.argmin.c1, cert.argmin.c2) == cert.h_value

    def test_matches_reference_enumeration(self):
        for seed in range(4):
            g = make_random_graph(7, 10, seed=20 + seed)
            for k in (1.5, 2, 4):
                cert = brute_force_cheeger(g, {0}, {1}, k=k)
                ref_h, ref_count = reference_cheeger(g, {0}, {1}, k)
                assert cert.h_value == pytest.approx(ref_h, rel=1e-12)
                assert cert.feasible_count == ref_count

    def test_one_sided_seed(self):
        g = make_random_graph(8, 14, seed=2)
        cert = brute_force_cheeger(g, {0}, set(), k=4)
        ref_h, _ = reference_cheeger(g, {0}, set(), 4)
        assert cert.h_value == pytest.approx(ref_h, rel=1e-12)

    def test_monotone_in_k(self):
        g = make_random_graph(9, 16, seed=31)
        values = [
            brute_force_cheeger(g, {0}, {1}, k=k).h_value for k in (1.5, 2, 3, 5, 8)
        ]
        assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))

    def test_node_limit(self):
        g = make_random_graph(17, 20, seed=0)
        with pytest.raises(OracleError, match="16"):
            brute_force_cheeger(g, {0}, {1}, k=2)


class TestRelaxationBound:
    def test_t3(self, t3):
        rep = verify_relaxation(t3, {0}, {2}, k=3)
        assert rep.h_value == pytest.approx(1.0 / 3.0)
        assert rep.lambda_value <= 4 * rep.h_value + 1e-6
        assert rep.ok

    def test_balanced_instance_both_sides_zero(self, balanced_path):
        rep = verify_relaxation(balanced_path, {0, 1}, {2}, k=2)
        assert rep.h_value == 0.0
        assert rep.lambda_value <= 1e-6

    def test_k_at_most_one_rejected(self, t3):
        with pytest.raises(OracleError):
            verify_relaxation(t3, {0}, {2}, k=1)

    def test_random_instances(self):
        for seed in range(10):
            g = make_random_graph(8, 14, seed=40 + seed, weighted=seed % 3 == 0)
            rep = verify_relaxation(g, {0}, {1}, k=3)
            assert rep.ok, f"seed {seed}: {rep}"


class TestApproximationBound:
    def test_t3(self, t3):
        rep = verify_approximation(t3, {0}, {2}, k=3)
        assert rep.beta_out <= np.sqrt(8.0 / 3.0) + 1e-6
        assert rep.ok

    def test_balanced_instance(self, balanced_path):
        rep = verify_approximation(balanced_path, {0, 1}, {2}, k=2)
        assert rep.beta_out == 0.0

    def test_random_instances(self):
        for seed in range(10):
            n = 8 + (seed % 5)
            g = make_random_graph(n, 2 * n, seed=60 + seed, weighted=seed % 2 == 0)
            rep = verify_approximation(g, {0}, {1}, k=3)
            assert rep.beta_out <= rep.sweep_bound + 1e-6, f"seed {seed}: {rep}"
            assert rep.beta_out <= rep.cheeger_bound + 1e-6, f"seed {seed}: {rep}"


class TestKktCheck:
    def test_inactive_regime(self, t3):
        s = seed_vector(t3, {0}, {2})
        sol = solve_seeded(t3, s, kappa=0.0)
        rep = kkt_check(t3, sol.x, s, sol.alpha, kappa=0.0)
        assert rep.correlation_slack >= -1e-9
        assert rep.multiplier == pytest.approx(0.0, abs=1e-6)
        assert rep.complementary_slackness == pytest.approx(0.0, abs=1e-6)

    def test_active_regime_residuals(self, t3):
        s = seed_vector(t3, {0}, {2})
        sol = solve_seeded(t3, s, kappa=0.9, eps=1e-3, cg_tol=1e-12)
        rep = kkt_check(t3, sol.x, s, sol.alpha, kappa=0.9)
        ds_norm = np.linalg.norm(t3.degrees * s.values)
        assert rep.primal_norm_residual <= 1e-6
        assert rep.stationarity_residual <= 1e-5 * ds_norm
        assert abs(rep.correlation_slack) <= 1e-3

    def test_scaled_vector_primal_residual(self, t3):
        s = seed_vector(t3, {0}, {2})
        sol = solve_seeded(t3, s, kappa=0.9)
        rep = kkt_check(t3, 1.1 * sol.x, s, sol.alpha, kappa=0.9)
        assert rep.primal_norm_residual == pytest.approx(0.21, abs=1e-6)


class TestCorrelationAt:
    def test_single_edge_recovers_seed(self, single_edge):
        s = seed_vector(single_edge, {0}, {1})
        c, x, _ = correlation_at(single_edge, -1.0, s)
        assert c == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(x, s.values, rtol=1e-10)

    def test_very_negative_alpha_approaches_seed(self, t3):
        s = seed_vector(t3, {0}, {2})
        c, _, _ = correlation_at(t3, -1000 * t3.total_volume, s)
        assert c >= 0.99

    def test_near_lambda1_approaches_eigenspace_projection(self, t3):
        # T3's bottom eigenvalue has multiplicity 2; the correlation limit is
        # the D-norm of the seed's projection onto that eigenspace, computed
        # here with a dense eigendecomposition.
        s = seed_vector(t3, {0}, {2})
        lnorm = dense_normalized_laplacian(t3)
        vals, vecs = np.linalg.eigh(lnorm)
        eigenspace = vecs[:, np.isclose(vals, vals[0])]
        rootd = np.sqrt(t3.degrees)
        y_seed = rootd * s.values
        proj = float(np.linalg.norm(eigenspace.T @ y_seed))
        c, _, _ = correlation_at(t3, 0.5 - 1e-6, s, tol=1e-12)
        assert c == pytest.approx(proj, abs=1e-3)

    def test_monotone_nonincreasing_in_alpha(self):
        for seed in range(5):
            g = make_random_graph(15, 40, seed=seed)
            s = seed_vector(g, {0, 1}, {2})
            lam1 = smallest_eigenpair(g).lambda1
            alphas = np.linspace(-g.total_volume, lam1 - 1e-6, 25)
            cs = [correlation_at(g, a, s, tol=1e-10)[0] for a in alphas]
            assert all(cs[i] >= cs[i + 1] - 1e-8 for i in range(len(cs) - 1))
