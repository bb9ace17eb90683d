import numpy as np
import pytest

from signedpolar import (
    SynthError,
    SynthParams,
    generate,
    generate_scaled,
    reference_average_degree,
    smallest_eigenpair,
)
from signedpolar.synth import scaled_min_nodes
from signedpolar.oracle import beta


def edge_set(g):
    e = g.adjacency.tocoo()
    return {
        (g.labels[u], g.labels[v], w)
        for u, v, w in zip(e.row.tolist(), e.col.tolist(), e.data.tolist())
    }


class TestParams:
    def test_validation(self):
        with pytest.raises(SynthError):
            SynthParams(pairs=0, band_size=3)
        with pytest.raises(SynthError):
            SynthParams(pairs=1, band_size=3, eta=1.5)

    def test_node_count(self):
        assert SynthParams(pairs=8, band_size=20, outliers=5).node_count == 325


class TestGenerate:
    def test_noiseless_single_pair_is_deterministic(self):
        g, truth = generate(SynthParams(pairs=1, band_size=3, eta=0.0, rng_seed=0))
        assert g.node_count == 6
        # two positive 3-cliques joined by 9 negative edges
        pos = int((g.adjacency.data > 0).sum())
        neg = int((g.adjacency.data < 0).sum())
        assert (pos, neg) == (6, 9)
        b1, b2 = truth.pairs[0]
        idx1 = [g.index_of(lab) for lab in b1]
        idx2 = [g.index_of(lab) for lab in b2]
        assert beta(g, idx1, idx2) == 0.0
        assert smallest_eigenpair(g).lambda1 <= 1e-12

    def test_same_seed_reproduces_bytes(self):
        p = SynthParams(pairs=2, band_size=5, outliers=3, eta=0.2, rng_seed=99)
        g1, t1 = generate(p)
        g2, t2 = generate(p)
        assert edge_set(g1) == edge_set(g2)
        assert t1 == t2

    def test_different_seed_differs(self):
        g1, _ = generate(SynthParams(pairs=2, band_size=5, eta=0.2, rng_seed=1))
        g2, _ = generate(SynthParams(pairs=2, band_size=5, eta=0.2, rng_seed=2))
        assert edge_set(g1) != edge_set(g2)

    def test_eta_one_frequencies(self):
        # at full noise: within-band pairs are never positive and carry an
        # edge with probability 1/2; background pairs are always edges with
        # balanced signs
        params = SynthParams(pairs=2, band_size=30, eta=1.0, rng_seed=5)
        g, truth = generate(params)
        band = set(next(iter(truth.pairs))[0])
        idx = {g.index_of(lab) for lab in band if lab in g.label_index}
        e = g.adjacency.tocoo()
        within_pos = sum(
            1
            for u, v, w in zip(e.row.tolist(), e.col.tolist(), e.data.tolist())
            if w > 0 and u in idx and v in idx
        )
        assert within_pos == 0
        n, m_band = params.node_count, params.band_size
        in_pair_pairs = params.pairs * (2 * (m_band * (m_band - 1) // 2) + m_band**2)
        background_pairs = n * (n - 1) // 2 - in_pair_pairs
        expected = 0.5 * in_pair_pairs + 1.0 * background_pairs
        assert g.edge_count == pytest.approx(expected, rel=0.03)

    def test_within_band_positive_fraction_near_expectation(self):
        # over 10 graphs the within-band positive-edge share of sampled pairs
        # concentrates near 1 - eta (3-sigma binomial band)
        eta = 0.05
        got_pos = 0
        got_pairs = 0
        for seed in range(10):
            p = SynthParams(pairs=8, band_size=20, eta=eta, rng_seed=seed)
            g, truth = generate(p)
            lab2idx = g.label_index
            e = g.adjacency.tocoo()
            for b1, b2 in truth.pairs:
                for band in (b1, b2):
                    ids = sorted(lab2idx[lab] for lab in band)
                    idset = set(ids)
                    got_pairs += len(ids) * (len(ids) - 1) // 2
                    got_pos += sum(
                        1
                        for u, v, w in zip(e.row.tolist(), e.col.tolist(), e.data.tolist())
                        if w > 0 and u in idset and v in idset
                    )
        frac = got_pos / got_pairs
        sigma = np.sqrt((1 - eta) * eta / got_pairs)
        assert abs(frac - (1 - eta)) <= 3 * sigma + 1e-12

    def test_class_frequencies_chi_square(self):
        from scipy.stats import chisquare

        eta = 0.3
        p = SynthParams(pairs=2, band_size=40, eta=eta, rng_seed=17)
        g, truth = generate(p)
        lab2idx = g.label_index
        band1, band2 = truth.pairs[0]
        ids1 = {lab2idx[lab] for lab in band1 if lab in lab2idx}
        counts = {"pos": 0, "neg": 0}
        e = g.adjacency.tocoo()
        for u, v, w in zip(e.row.tolist(), e.col.tolist(), e.data.tolist()):
            if u in ids1 and v in ids1:
                counts["pos" if w > 0 else "neg"] += 1
        npairs = len(ids1) * (len(ids1) - 1) // 2
        observed = [counts["pos"], counts["neg"], npairs - counts["pos"] - counts["neg"]]
        expected = [npairs * (1 - eta), npairs * eta / 2, npairs * eta / 2]
        stat, pvalue = chisquare(observed, expected)
        assert pvalue > 1e-6

    def test_disconnected_noiseless_multi_pair_restricted(self):
        g, truth = generate(SynthParams(pairs=3, band_size=3, eta=0.0, rng_seed=0))
        assert truth.restricted_to_lcc
        assert g.node_count == 6
        assert len(truth.pairs) == 1

    def test_degenerate_params_raise(self):
        # smallest instance has one candidate pair; a draw above 1/2 at full
        # noise yields no edge at all
        seed = next(
            s for s in range(50) if np.random.default_rng(s).random(1)[0] >= 0.5
        )
        with pytest.raises(SynthError):
            generate(SynthParams(pairs=1, band_size=1, eta=1.0, rng_seed=seed))


class TestGenerateScaled:
    def test_determinism_and_degree(self):
        g1, t1 = generate_scaled(5000, 20.0, rng_seed=4)
        g2, _ = generate_scaled(5000, 20.0, rng_seed=4)
        assert edge_set(g1) == edge_set(g2)
        avg = 2 * g1.edge_count / g1.node_count
        assert avg == pytest.approx(20.0, rel=0.15)
        assert g1.is_connected()
        assert len(t1.pairs) == 8

    @pytest.mark.parametrize("n, avg_degree", [
        (scaled_min_nodes(8, 20) - 1, 20.0), (0, 20.0), (2000, 0.0), (2000, -3.0),
        (2000, float("nan")), (2000, float("inf")), (2000, float("-inf")),
    ])
    def test_bad_arguments_raise(self, n, avg_degree):
        with pytest.raises(SynthError):
            generate_scaled(n, avg_degree)

    @pytest.mark.parametrize("eta", [-0.5, 1.5, float("nan")])
    def test_eta_outside_the_unit_interval_raises(self, eta):
        with pytest.raises(SynthError, match=r"eta must lie in \[0, 1\]"):
            generate_scaled(2000, 20.0, eta=eta)

    @pytest.mark.parametrize("n, avg_degree", [(322, 20.0), (2000, 5.0)])
    def test_no_filler_budget_names_the_degree_that_leaves_one(self, n, avg_degree):
        # The planted edges alone use up the budget: without filler the
        # largest component would be one planted pair.
        with pytest.raises(SynthError, match="leaves no filler edge") as err:
            generate_scaled(n, avg_degree)
        least = float(str(err.value).rsplit(" ", 1)[1])
        with pytest.raises(SynthError):
            generate_scaled(n, least * (1 - 1e-4))
        g, _ = generate_scaled(n, least * (1 + 1e-4))
        assert g.edge_count > 0

    def test_smallest_instance(self):
        g, truth = generate_scaled(scaled_min_nodes(8, 20), 52.0)
        assert g.node_count == 322 and len(truth.pairs) == 8

    def test_reference_average_degree(self):
        p = SynthParams(pairs=8, band_size=20, eta=0.05)
        # within-band + cross-band + background expectation at these params
        assert reference_average_degree(p) == pytest.approx(52.025, abs=1e-10)
