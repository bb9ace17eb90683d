import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedpolar import (
    GraphError,
    IngestError,
    SignedGraph,
    build_graph,
    community,
    ingest,
    query,
    random_signed_graph,
    read_edge_list,
    read_ground_truth,
    sample_seed_pairs,
    seed_vector,
    solve_seeded,
    write_edge_list,
    write_ground_truth,
)
from signedpolar.harness import ExperimentConfig, experiment_csv, run_experiment
from signedpolar.oracle import naive_degrees, naive_sweep
from signedpolar.synth import GroundTruth, SynthParams, generate


class TestIngest:
    def test_parse_t3(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# comment line\na b 1\na c 1.0\nb c -1 # trailing\n")
        g = ingest(path)
        assert g.node_count == 3 and g.edge_count == 3
        assert g.total_volume == 6.0

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b 1\na c oops\n")
        with pytest.raises(IngestError, match=":2"):
            ingest(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b\n")
        with pytest.raises(IngestError, match=":1"):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("# nothing here\n")
        with pytest.raises(IngestError, match="no edges"):
            ingest(path)

    def test_directed_symmetrization_cancels(self, tmp_path):
        path = tmp_path / "d.edges"
        path.write_text("a b 1\nb a -1\na c 2\n")
        g = ingest(path, directed=True)
        # the reciprocal pair averages to zero and is dropped
        assert g.edge_count == 1
        assert set(g.labels) == {"a", "c"}
        assert g.adjacency.data[0] == 1.0  # one-directional entry contributes w/2

    def test_directed_averages_reciprocal(self, tmp_path):
        path = tmp_path / "d.edges"
        path.write_text("a b 3\nb a 1\n")
        g = ingest(path, directed=True)
        assert g.adjacency.data[0] == 2.0

    def test_disconnected_keeps_heavier_component(self, tmp_path, caplog):
        path = tmp_path / "two.edges"
        path.write_text("a b 5\nb c 5\nx y 1\n")
        with caplog.at_level("WARNING"):
            g = ingest(path)
        assert set(g.labels) == {"a", "b", "c"}
        assert "dropped" in caplog.text

    def test_roundtrip(self, tmp_path, t3):
        path = tmp_path / "rt.edges"
        write_edge_list(path, t3)
        g = ingest(path)
        assert g.node_count == 3 and g.total_volume == 6.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_roundtrip_keeps_labelled_pairs_and_weights(self, tmp_path, seed):
        # quarter-integer weights print exactly in write_edge_list's format
        rng = np.random.default_rng(seed)
        base = random_signed_graph(60, 200, rng_seed=seed)
        adj = base.adjacency.copy()
        adj.data = adj.data * rng.integers(1, 40, adj.nnz) / 4
        g = SignedGraph(base.labels, adj)
        path = tmp_path / "rt.edges"
        write_edge_list(path, g)
        rows = read_edge_list(path)
        # the file lists the edges in (u, v) order, which numbers a re-read
        # graph's nodes
        e = g.adjacency.tocoo()
        assert [(rows.labels[a], rows.labels[b]) for a, b in zip(rows.u, rows.v)] == [
            (g.labels[a], g.labels[b]) for a, b in zip(e.row, e.col)
        ]
        h = ingest(path)

        def labelled(x):
            e = x.adjacency.tocoo()
            return {
                frozenset((x.labels[a], x.labels[b])): c
                for a, b, c in zip(e.row.tolist(), e.col.tolist(), e.data.tolist())
            }

        assert labelled(h) == labelled(g)

    def test_roundtrip_keeps_every_float_weight(self, tmp_path):
        rng = np.random.default_rng(4)
        base = random_signed_graph(60, 200, rng_seed=4)
        adj = base.adjacency.copy()
        w = adj.data = adj.data * rng.uniform(0.5, 2.0, adj.nnz)
        w *= 10.0 ** rng.integers(-12, 12, adj.nnz)
        w[0] = 0.1 + 0.2  # 0.30000000000000004, which 12 digits print as 0.3
        g = SignedGraph(base.labels, adj)
        path = tmp_path / "rt.edges"
        write_edge_list(path, g)
        assert read_edge_list(path).w.tobytes() == w.tobytes()

    @pytest.mark.parametrize("bad", ["New York", "a#b", "x\xa0y", "", " a"])
    def test_unwritable_label_raises_before_the_file_is_made(self, tmp_path, bad):
        g = build_graph([("a", bad, 1.0), ("a", "c", -1.0)])
        path = tmp_path / "rt.edges"
        with pytest.raises(GraphError, match="one token"):
            write_edge_list(path, g)
        assert not path.exists()


class TestGroundTruthIO:
    def test_roundtrip(self, tmp_path):
        truth = GroundTruth(
            pairs=((frozenset({"n0", "n1"}), frozenset({"n2"})),),
            outliers=frozenset({"n9"}),
        )
        path = tmp_path / "t.json"
        write_ground_truth(path, truth)
        loaded = read_ground_truth(path)
        assert loaded == truth
        doc = json.loads(path.read_text())
        assert doc["pairs"] == [[["n0", "n1"], ["n2"]]]


class TestQuery:
    def test_t3_query_cross_checked(self, t3):
        doc = query(t3, ["a"], ["c"], kappa=0.9)
        assert "a" in doc["c1"] and "c" in doc["c2"]
        assert doc["beta"] <= 1.0
        s = seed_vector(t3, {0}, {2})
        sol = solve_seeded(t3, s, kappa=0.9)
        ref = naive_sweep(t3, sol.x)
        assert doc["beta"] == pytest.approx(ref.beta, rel=1e-9)
        assert doc["search_steps"] == sol.search_steps >= 1
        assert doc["lanczos_steps"] == sol.lanczos_steps == 0  # dense path
        assert doc["cg_iterations"] == sol.cg_iterations >= 1
        assert doc["timings"]["solve_ms"] >= 0
        assert doc["timings"]["round_ms"] >= 0

    def test_unknown_label_is_named(self, t3):
        with pytest.raises(GraphError, match="zzz"):
            query(t3, ["zzz"], ["c"])

    def test_noiseless_planted_recovery_at_kappa_zero(self):
        g, truth = generate(SynthParams(pairs=1, band_size=4, eta=0.0, rng_seed=1))
        b1, b2 = truth.pairs[0]
        doc = query(g, [sorted(b1)[0]], [sorted(b2)[0]], kappa=0.0)
        assert doc["beta"] == 0.0
        bands = (set(map(str, b1)), set(map(str, b2)))
        assert set(doc["c1"]) in bands and set(doc["c2"]) in bands

    def test_emit_vector(self, t3):
        doc = query(t3, ["a"], ["c"], kappa=0.5, emit_vector=True)
        assert len(doc["x"]) == 3

    def test_one_sided_seed(self, t3):
        doc = query(t3, ["a"], [], kappa=0.5)
        assert "a" in doc["c1"] or "a" in doc["c2"]
        assert doc["beta"] >= 0

    def test_emitted_beta_recomputable_from_bands(self):
        # the reported ratio must match an independent recomputation from the
        # emitted label sets alone
        g, truth = generate(SynthParams(pairs=2, band_size=6, eta=0.15, rng_seed=8))
        b1, b2 = truth.pairs[0]
        doc = query(g, sorted(b1)[:1], sorted(b2)[:1], kappa=0.9)
        c1 = [g.index_of(lab) for lab in doc["c1"]]
        c2 = [g.index_of(lab) for lab in doc["c2"]]
        recomputed = community(g, c1, c2)
        assert doc["beta"] == pytest.approx(recomputed.beta, rel=1e-12)


class TestSeedSampling:
    def test_t3_only_candidate(self, t3):
        pairs = sample_seed_pairs(t3, t=1.0, count=5)
        assert pairs == [("b", "c")]

    def test_no_negative_edges(self, single_edge):
        with pytest.raises(GraphError, match="lower the threshold"):
            sample_seed_pairs(single_edge, t=0.0, count=1)

    def test_saturation_returns_all(self, t3, caplog):
        with caplog.at_level("WARNING"):
            pairs = sample_seed_pairs(t3, t=0.0, count=10)
        assert len(pairs) == 1
        assert "only" in caplog.text

    def test_threshold_filters(self, t3):
        with pytest.raises(GraphError):
            sample_seed_pairs(t3, t=5.0, count=1)

    @given(seed=st.integers(0, 10_000), weighted=st.booleans(), q=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_qualifies_negative_edges_by_reference_positive_degree(self, seed, weighted, q):
        g = random_signed_graph(30, 90, rng_seed=seed, weighted=weighted)
        _, pos = naive_degrees(g)
        t = float(np.quantile(pos, q))
        e = g.adjacency.tocoo()
        expected = {
            (g.labels[a], g.labels[b])
            for a, b, w in zip(e.row, e.col, e.data)
            if w < 0 and pos[a] >= t and pos[b] >= t
        }
        if not expected:
            with pytest.raises(GraphError, match="lower the threshold"):
                sample_seed_pairs(g, t=t, count=g.edge_count)
        else:
            assert set(sample_seed_pairs(g, t=t, count=g.edge_count)) == expected


class TestExperiment:
    CONFIG = ExperimentConfig(
        etas=(0.0, 0.1),
        seed_sizes=(2,),
        kappas=(0.9,),
        pairs=2,
        band_size=5,
        graphs_per_config=2,
        queries_per_graph=2,
        rng_seed=7,
    )

    def test_rows_and_determinism(self):
        rows1 = run_experiment(self.CONFIG)
        rows2 = run_experiment(self.CONFIG)
        assert experiment_csv(rows1) == experiment_csv(rows2)
        assert len(rows1) == 2

    def test_noiseless_cell_perfect(self):
        rows = run_experiment(self.CONFIG)
        clean = next(r for r in rows if r["eta"] == 0.0)
        assert clean["mean_ap"] == 1.0
        assert clean["mean_beta_ratio"] <= 1.0
        assert clean["failures"] == 0

    def test_csv_shape(self):
        rows = run_experiment(self.CONFIG)
        text = experiment_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("eta,seed_size,kappa")
        assert len(lines) == 3
        assert "solve_ms" not in lines[0]  # timings are opt-in
