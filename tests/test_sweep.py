import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import signedpolar.graph as graph_mod
from signedpolar import SweepError, build_graph, build_sweep_table, fast_sweep
from signedpolar.oracle import naive_sweep, rayleigh_quotient
from signedpolar.sweep import edge_charge
from conftest import make_random_graph, scratch_beta

X3 = np.array([0.9, 0.5, -0.8])


class TestNaiveSweep:
    def test_t3_candidates_and_winner(self, t3):
        comm = naive_sweep(t3, X3)
        assert comm.c1 == (0, 1) and comm.c2 == (2,)
        assert comm.beta == pytest.approx(1.0 / 3.0)

    def test_balanced_indicator_reaches_zero(self, balanced_path):
        comm = naive_sweep(balanced_path, np.array([1.0, 1.0, -1.0]))
        assert comm.beta == 0.0

    def test_single_nonzero_entry(self, t3):
        comm = naive_sweep(t3, np.array([0.0, 0.7, 0.0]))
        assert comm.c1 == (1,) and comm.c2 == ()
        assert comm.beta == pytest.approx(2.0 / 2.0)  # both edges leave node b

    def test_zero_vector_rejected(self, t3):
        with pytest.raises(SweepError):
            naive_sweep(t3, np.zeros(3))


class TestSweepTable:
    def test_t3_prefix_arrays(self, t3):
        # order a (0.9), c (-0.8), b (0.5); the full prefix keeps only the
        # positive a-c edge across the bands as a contradiction
        t = build_sweep_table(t3, X3)
        np.testing.assert_array_equal(t.order_abs, [0, 2, 1])
        np.testing.assert_array_equal(t.abs_values, [0.9, 0.8, 0.5])
        np.testing.assert_array_equal(t.threshold_end, [False, True, True, True])
        np.testing.assert_array_equal(t.vol_abs, [0, 2, 4, 6])
        np.testing.assert_array_equal(t.numerator, [0, 2, 4, 2])
        assert np.isnan(t.beta_prefix[0])
        np.testing.assert_allclose(t.beta_prefix[1:], [1.0, 1.0, 1.0 / 3.0])
        assert t.edge_visits == t3.edge_count

    def test_volume_order_and_tie_groups(self):
        g = make_random_graph(40, 120, seed=2, weighted=True)
        x = np.round(np.random.default_rng(0).standard_normal(g.node_count), 1)
        t = build_sweep_table(g, x)
        assert t.vol_abs[0] == 0.0
        np.testing.assert_allclose(
            t.vol_abs[1:] - t.vol_abs[:-1], g.degrees[t.order_abs]
        )
        expected = sorted(np.flatnonzero(x), key=lambda u: (-abs(x[u]), -x[u], u))
        np.testing.assert_array_equal(t.order_abs, expected)
        np.testing.assert_array_equal(t.abs_values, np.abs(x[t.order_abs]))
        group_end = np.append(t.abs_values[:-1] != t.abs_values[1:], True)
        np.testing.assert_array_equal(t.threshold_end[1:], group_end)
        assert not t.threshold_end[0]
        assert t.edge_visits == g.edge_count

    def test_full_prefix_has_no_boundary(self, t3):
        t = build_sweep_table(t3, X3)
        assert t.vol_abs[-1] == t3.total_volume
        assert t.numerator[-1] == 2.0  # 2w of the a-c edge, no boundary term

    def test_zero_entries_never_ranked(self, t3):
        t = build_sweep_table(t3, np.array([0.4, 0.0, -0.2]))
        assert t.size == 2
        assert set(t.order_abs.tolist()) == {0, 2}

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 80),
        weighted=st.booleans(),
        decimals=st.sampled_from([0, 1, 15]),  # coarse values force ties
        zero_frac=st.sampled_from([0.0, 0.1, 0.5]),
    )
    @example(seed=6, n=200, weighted=True, decimals=15, zero_frac=0.1)
    @settings(max_examples=40, deadline=None)
    def test_per_prefix_beta_matches_scratch_recount(
        self, seed, n, weighted, decimals, zero_frac
    ):
        # every prefix of the tie-broken order, not only threshold ends
        rng = np.random.default_rng(seed)
        g = make_random_graph(n, int(rng.integers(0, 3 * n)), seed=seed % 997,
                              weighted=weighted)
        x = np.round(rng.standard_normal(n), decimals)
        x[rng.random(n) < zero_frac] = 0.0
        if not np.any(x != 0):
            x[0] = 1.0
        t = build_sweep_table(g, x)
        for i in range(1, t.size + 1):
            prefix = t.order_abs[:i]
            c1 = [int(u) for u in prefix if x[u] > 0]
            c2 = [int(u) for u in prefix if x[u] < 0]
            expected = scratch_beta(g, c1, c2)
            assert t.beta_prefix[i] == pytest.approx(expected, rel=1e-12)


def _one_pass_table(g, x):
    """The prefix sums of one unblocked pass: every edge's later rank and
    charge as whole arrays, then one ``np.bincount``."""
    nodes = np.flatnonzero(x != 0.0)
    nz = len(nodes)
    order_abs = nodes[np.lexsort((nodes, -x[nodes], -np.abs(x[nodes])))]
    rank = np.full(g.node_count, nz, dtype=np.int32)
    rank[order_abs] = np.arange(nz, dtype=np.int32)
    e = g.adjacency.tocoo()
    hi = np.maximum(rank[e.row], rank[e.col]) + 1
    positive = x > 0
    charge = edge_charge(e.data, positive[e.row] == positive[e.col])
    charge = np.bincount(hi, weights=charge, minlength=nz + 2)[: nz + 1]
    vol_abs = np.concatenate([[0.0], np.cumsum(g.degrees[order_abs])])
    numerator = vol_abs + np.cumsum(charge)
    beta_prefix = np.full(nz + 1, np.nan)
    beta_prefix[1:] = numerator[1:] / vol_abs[1:]
    return {"numerator": numerator, "vol_abs": vol_abs, "beta_prefix": beta_prefix}


class TestBlockedTable:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 80),
        block=st.sampled_from([1, 2, 5, 16, 4096]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_one_pass_bit_for_bit(self, seed, n, block):
        rng = np.random.default_rng(seed)
        g = make_random_graph(n, int(rng.integers(0, 4 * n)), seed=seed % 997, weighted=True)
        # one decimal gives zeros and ties in |x|, of equal and opposite signs
        x = np.round(rng.standard_normal(n), 1)
        if not np.any(x):
            x[0] = -0.5
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_mod, "_GATHER_BLOCK", block)
            table = build_sweep_table(g, x)
        for name, ref in _one_pass_table(g, x).items():
            assert np.array_equal(getattr(table, name).view(np.int64), ref.view(np.int64)), name

    def test_peak_does_not_grow_with_the_edges(self):
        # A dense graph, 50 edges a node: the table holds one block of
        # entries and a few arrays a node, about 20 bytes an entry and 110
        # a node, so the allowance has no term in the edge count.
        g = make_random_graph(2000, 100_000, seed=6, weighted=True)
        x = np.random.default_rng(0).standard_normal(g.node_count)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_sweep_table(g, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 128 * g.node_count + 32 * graph_mod._GATHER_BLOCK


class TestEdgeCharge:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 80),
        neg_fraction=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_select_expression_bit_for_bit(self, seed, n, neg_fraction):
        rng = np.random.default_rng(seed)
        g = make_random_graph(n, int(rng.integers(0, 3 * n)), seed=seed % 997,
                              weighted=True, neg_fraction=neg_fraction)
        positive = rng.random(n) < 0.5
        e = g.adjacency.tocoo()
        same_side = positive[e.row] == positive[e.col]
        w = e.data
        agree = same_side == (w > 0)
        ref = np.where(agree, -2.0 * np.abs(w), np.minimum(w, 0.0))
        # same floats, sign bits of zeros included
        assert np.array_equal(edge_charge(w, same_side).view(np.int64), ref.view(np.int64))


class TestFastSweep:
    def test_matches_naive_on_t3(self, t3):
        a, b = fast_sweep(t3, X3), naive_sweep(t3, X3)
        assert (a.c1, a.c2, a.beta) == (b.c1, b.c2, b.beta)

    def test_tie_handling_constant_magnitude(self, t3):
        x = np.array([0.5, 0.5, -0.5])
        a, b = fast_sweep(t3, x), naive_sweep(t3, x)
        assert a.c1 == b.c1 == (0, 1)
        assert a.c2 == b.c2 == (2,)

    def test_tie_break_prefers_larger_community(self):
        # thresholds 1.0 and 0.5 both give ratio 1; the smaller t must win
        g = build_graph([("a", "b", -1.0), ("a", "c", -1.0)])
        x = np.array([0.0, 1.0, 0.5])
        comm = fast_sweep(g, x)
        ref = naive_sweep(g, x)
        assert comm.c1 == ref.c1 == (1, 2)
        assert comm.c2 == ref.c2 == ()
        assert comm.beta == pytest.approx(1.0)

    def test_zero_vector_rejected(self, t3):
        with pytest.raises(SweepError):
            fast_sweep(t3, np.zeros(3))

    def test_randomized_equivalence_with_naive(self):
        rng = np.random.default_rng(12)
        for trial in range(30):
            n = int(rng.integers(3, 120))
            g = make_random_graph(
                n, int(rng.integers(0, 3 * n)), seed=trial, weighted=trial % 2 == 0
            )
            x = rng.standard_normal(n)
            if trial % 4 == 0:
                x[rng.random(n) < 0.25] = 0.0
            if not np.any(x != 0):
                continue
            fast, ref = fast_sweep(g, x), naive_sweep(g, x)
            assert fast.c1 == ref.c1 and fast.c2 == ref.c2
            assert fast.beta == pytest.approx(ref.beta, rel=1e-12)

    def test_cheeger_step_bound(self):
        # returned ratio is at most sqrt(2 * Rayleigh quotient) for any input
        rng = np.random.default_rng(8)
        for trial in range(20):
            g = make_random_graph(40, 120, seed=trial + 50, weighted=True)
            x = rng.standard_normal(g.node_count)
            comm = fast_sweep(g, x)
            assert comm.beta <= np.sqrt(2 * rayleigh_quotient(g, x)) + 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        g = make_random_graph(n, int(rng.integers(0, 2 * n)), seed=seed % 997)
        x = np.round(rng.standard_normal(n), 1)  # coarse values force ties
        if not np.any(x != 0):
            x[0] = 1.0
        fast, ref = fast_sweep(g, x), naive_sweep(g, x)
        assert fast.c1 == ref.c1 and fast.c2 == ref.c2
        assert fast.beta == pytest.approx(ref.beta, rel=1e-12)
