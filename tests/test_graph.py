import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from signedpolar import (
    EdgeList,
    GraphError,
    SignedGraph,
    build_graph,
    community,
    edge_counts,
    largest_component,
    random_signed_graph,
    seed_vector,
)
import signedpolar.graph as graph_mod
from signedpolar.oracle import (
    beta,
    indicator_vector,
    naive_build_graph,
    naive_edge_counts,
    rayleigh_quotient,
)
from conftest import assert_same_graph, make_random_graph, scratch_beta


class TestBuildGraph:
    def test_t3_basics(self, t3):
        assert t3.node_count == 3
        np.testing.assert_allclose(t3.degrees, [2.0, 2.0, 2.0])
        assert t3.total_volume == 6.0
        assert t3.edge_count == 3

    def test_duplicate_pairs_merge_by_sum(self):
        g = build_graph([("a", "b", 1.0), ("b", "a", 1.0)])
        assert g.edge_count == 1
        assert g.adjacency.data[0] == 2.0
        np.testing.assert_allclose(g.degrees, [2.0, 2.0])

    def test_cancelling_pair_dropped(self):
        g = build_graph([("a", "b", 1.0), ("b", "a", -1.0), ("a", "c", 1.0)])
        assert g.node_count == 3
        assert g.edge_count == 1

    def test_self_loop_rejected_with_label(self):
        with pytest.raises(GraphError, match="'a'"):
            build_graph([("a", "a", 1.0)])

    def test_empty_edge_list(self):
        with pytest.raises(GraphError, match="empty"):
            build_graph([])

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphError):
            build_graph([("a", "b", 0.0)])

    def test_degree_matches_recomputation(self):
        g = make_random_graph(40, 120, seed=1, weighted=True)
        recomputed = np.zeros(g.node_count)
        e = g.adjacency.tocoo()
        for u, v, w in zip(e.row, e.col, e.data):
            recomputed[u] += abs(w)
            recomputed[v] += abs(w)
        np.testing.assert_allclose(g.degrees, recomputed, rtol=1e-14)


class TestConstructor:
    @pytest.mark.parametrize(
        "u, v",
        [([0, 1, 0], [1, 2, 1]), ([0, 1], [1, 0]), ([0, 2], [1, 1]), ([1], [1]), ([0, 2], [1, 0]),
         ([0, 0], [2, 1])],  # the last: distinct pairs, each u < v, not in (u, v) order
    )
    def test_pairs_must_be_distinct_and_ordered(self, u, v):
        # the pairs (u, v), stored row by row in the order given, as U's raw CSR arrays
        u, v = np.array(u), np.array(v)
        indices = v[np.argsort(u, kind="stable")].astype(np.int32)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(u, minlength=3))]).astype(np.int32)
        bad = sp.csr_matrix((np.ones(len(u)), indices, indptr), shape=(3, 3))
        with pytest.raises(GraphError, match="sorted, with no repeated entry|above the diagonal"):
            SignedGraph(["a", "b", "c"], bad)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_adjacency_matches_the_coo_route(self, weighted):
        n = 200
        u, v, w = _pair_set(3, n, 900, weighted)
        g = build_graph(EdgeList([f"n{i}" for i in range(n)], u, v, w))
        ref = sp.csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n),
        )
        ref.sum_duplicates()
        used = np.unique(np.concatenate([u, v]))  # unused labels are dropped
        assert g.labels == tuple(f"n{i}" for i in used)
        ref = ref[used][:, used]
        upper = sp.triu(ref, k=1, format="csr")
        adj = g.adjacency
        assert adj.indices.dtype == np.int32 and adj.has_sorted_indices
        assert adj.nnz == g.edge_count and (adj + adj.T != ref).nnz == 0
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(adj, name), getattr(upper, name)), name

    @pytest.mark.parametrize("weighted", [False, True])
    def test_adjacency_is_the_one_edge_store(self, weighted):
        g = random_signed_graph(200, 900, rng_seed=3, weighted=weighted)
        adj = g.adjacency
        assert adj.nnz == g.edge_count
        held = {name for name in type(g).__slots__
                if isinstance(getattr(g, name), np.ndarray) or sp.issparse(getattr(g, name))}
        assert held == {"adjacency", "degrees"}
        arrays = {name for name, a in vars(adj).items() if isinstance(a, np.ndarray)}
        assert arrays == {"indptr", "indices", "data"}

    def test_build_makes_one_sort(self, monkeypatch):
        g = random_signed_graph(200, 900, rng_seed=3)
        e = g.adjacency.tocoo()
        rows = [(g.labels[v], g.labels[u], w) for u, v, w in
                zip(e.row.tolist(), e.col.tolist(), e.data.tolist())]
        calls = []
        real = graph_mod._stable_sort

        def counting(key, col):
            calls.append(len(key))
            return real(key, col)

        monkeypatch.setattr(graph_mod, "_stable_sort", counting)
        assert build_graph(rows).edge_count == g.edge_count
        assert calls == [g.edge_count]  # the merge's one sort of the pair keys

    def test_build_peak_per_row(self):
        # On 2,000 nodes the bound lies between a build that sorts whole lo
        # and hi columns (33) and one that also makes the key as a new array
        # beside them (40). On 20,000 nodes, where fewer rows merge, it lies
        # below a build that splits the kept keys back into lo and hi
        # columns for the graph (33).
        for nodes, bound in ((2000, 36), (20_000, 28)):
            assert _build_peak(nodes) <= bound, nodes


def _build_peak(nodes):
    """``build_graph``'s tracemalloc peak per row on 220k int32 rows over
    ``nodes`` nodes, a tenth of them repeats. The build holds the 8-byte
    pair keys and the sorted weights, then the graph's columns: about 25
    bytes a row."""
    rng = np.random.default_rng(4)
    u, v = rng.integers(0, nodes, (2, 200_000), dtype=np.int32)
    u, v = u[u != v], v[u != v]
    again = rng.integers(0, len(u), len(u) // 10)
    u, v = np.concatenate([u, v[again]]), np.concatenate([v, u[again]])
    w = np.where(rng.random(len(u)) < 0.5, -1.0, 1.0)
    edges = EdgeList([f"n{i}" for i in range(nodes)], u, v, w)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_graph(edges)
        return (tracemalloc.get_traced_memory()[1] - base) / len(w)
    finally:
        tracemalloc.stop()


def _pair_set(seed, n, m, weighted):
    """``m`` distinct pairs ``u < v`` on ``n`` nodes in random order, with
    weights ±1 or of random magnitude."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    pick = rng.choice(len(iu), size=min(m, len(iu)), replace=False)
    sign = np.where(rng.random(len(pick)) < 0.5, -1.0, 1.0)
    mag = rng.uniform(0.1, 10.0, len(pick)) if weighted else 1.0
    return iu[pick], iv[pick], sign * mag


def _assert_same_arrays(g, h):
    assert np.array_equal(g.degrees, h.degrees)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(g.adjacency, name), getattr(h.adjacency, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


_pair_sets = dict(seed=st.integers(0, 10_000), n=st.integers(2, 40),
                  m=st.integers(1, 200), weighted=st.booleans())


class TestEdgeOrder:
    @given(**_pair_sets)
    @settings(max_examples=60, deadline=None)
    def test_any_permutation_gives_the_same_graph(self, seed, n, m, weighted):
        u, v, w = _pair_set(seed, n, m, weighted)
        labels = [f"n{i}" for i in range(n)]
        g = build_graph(EdgeList(labels, u, v, w))
        perm = np.random.default_rng(seed + 1).permutation(len(w))
        order = np.lexsort((v, u))
        for rows in (perm, order):
            h = build_graph(EdgeList(labels, u[rows], v[rows], w[rows]))
            assert h.labels == g.labels
            _assert_same_arrays(g, h)

    @given(**_pair_sets)
    @settings(max_examples=60, deadline=None)
    def test_edges_are_the_upper_triangle_in_csr_order(self, seed, n, m, weighted):
        u, v, w = _pair_set(seed, n, m, weighted)
        g = build_graph(EdgeList([f"n{i}" for i in range(n)], u, v, w))
        adj = g.adjacency
        rows = np.repeat(np.arange(g.node_count), np.diff(adj.indptr))
        assert (adj.indices > rows).all()
        old = np.array([int(lab[1:]) for lab in g.labels])  # each node's list index
        order = np.lexsort((v, u))
        assert np.array_equal(old[rows], u[order])
        assert np.array_equal(old[adj.indices], v[order])
        assert np.array_equal(adj.data, w[order])

    @given(seed=st.integers(0, 10_000), pool=st.integers(1, 30), rows=st.integers(1, 300),
           weighted=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_shuffled_rows_match_the_dict_reference(self, seed, pool, rows, weighted):
        # rows repeat pairs from a small pool, in both directions
        u, v, _ = _pair_set(seed, 12, pool, False)
        rng = np.random.default_rng(seed + 1)
        pick = rng.integers(0, len(u), rows)
        flip = rng.random(rows) < 0.5
        a = np.where(flip, v[pick], u[pick])
        b = np.where(flip, u[pick], v[pick])
        sign = np.where(rng.random(rows) < 0.5, -1.0, 1.0)
        w = sign * (10.0 ** rng.uniform(-8, 8, rows) if weighted else 1.0)
        edges = [(f"n{x}", f"n{y}", z) for x, y, z in zip(a.tolist(), b.tolist(), w.tolist())]
        try:
            ref = naive_build_graph(edges)
        except GraphError as exc:
            with pytest.raises(GraphError, match=re.escape(str(exc))):
                build_graph(edges)
        else:
            assert_same_graph(build_graph(edges), ref)

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 30), density=st.floats(0.0, 1.0),
           fault=st.sampled_from(["repeat", "unsorted", "diagonal", "lower", "outside", "shape",
                                  "format"]))
    @settings(max_examples=80, deadline=None)
    def test_repeated_or_unordered_pairs_raise(self, seed, n, density, fault):
        # the constructor takes only an n x n CSR U in canonical form, strictly upper
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((n, n)) < density, k=1)
        upper[0, 1:] = True  # row 0 holds two entries or more
        dense = np.where(upper, rng.choice([-1.0, 1.0], (n, n)), 0.0)
        base = sp.csr_matrix(dense)
        data, indices, indptr = (a.copy() for a in (base.data, base.indices, base.indptr))
        labels = [f"n{i}" for i in range(n)]
        g = SignedGraph(labels, sp.csr_matrix((data, indices, indptr), shape=(n, n)))
        assert np.array_equal((g.adjacency + g.adjacency.T).toarray(), dense + dense.T)
        full = np.flatnonzero(np.diff(indptr) >= 2)
        row = int(rng.choice(full))
        first = int(indptr[row])
        shape = (n, n)
        if fault == "repeat":  # a second entry at the place of a row's first
            data, indices = np.insert(data, first, 1.0), np.insert(indices, first, indices[first])
            indptr[row + 1:] += 1
        elif fault == "unsorted":
            indices[first], indices[first + 1] = indices[first + 1], indices[first]
        elif fault == "diagonal":
            indices[first] = row
        elif fault == "outside":  # a row's last column past the matrix
            indices[indptr[row + 1] - 1] = n
        elif fault == "lower":  # an entry at (r, c < r), at the head of row r
            r = int(rng.integers(1, n))
            at = int(indptr[r])
            data, indices = np.insert(data, at, 1.0), np.insert(indices, at, rng.integers(0, r))
            indptr[r + 1:] += 1
        elif fault == "shape":
            shape = (n, n + 1) if seed % 2 else (n + 1, n + 1)
            indptr = np.append(indptr, indptr[-1])[:shape[0] + 1]
        bad = sp.csr_matrix((data, indices, indptr), shape=shape)
        if fault == "format":
            bad = [bad.tocoo(), bad.tocsc(), bad.toarray(), (data, indices, indptr)][seed % 4]
        with pytest.raises(GraphError, match="adjacency"):
            SignedGraph(labels, bad)

    def test_keys_too_wide_to_pack_beside_positions_sort_stably(self):
        # 3 positions take 2 bits, so a 63-bit key leaves no room
        key, col = np.array([0, 2**62, 1]), np.arange(3)
        out = graph_mod._stable_sort(key, col)
        assert key.tolist() == [0, 1, 2**62] and out.tolist() == [0, 2, 1]
        assert col.tolist() == [0, 1, 2]
        key = np.array([2**61, 0, 2**61])  # 62 bits fit beside 2
        out = graph_mod._stable_sort(key, np.arange(3))
        assert key.tolist() == [0, 2**61, 2**61] and out.tolist() == [1, 0, 2]

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 300),
           distinct=st.integers(1, 20), width=st.sampled_from([1, 8, 40, 55, 61, 62, 63]))
    @settings(max_examples=80, deadline=None)
    def test_stable_sort_matches_a_stable_argsort(self, seed, size, distinct, width):
        # a few distinct keys, so that equal keys occur; keys of 55 bits
        # or fewer pack beside up to 300 positions, wider ones fall back
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**width, distinct, dtype=np.int64)
        key = values[rng.integers(0, distinct, size)]
        col = rng.standard_normal(size)
        order = np.argsort(key, kind="stable")
        want_key, want_col, held = key[order], col[order], col.copy()
        out = graph_mod._stable_sort(key, col)
        assert np.array_equal(key, want_key)
        assert np.array_equal(out.view(np.int64), want_col.view(np.int64))
        assert np.array_equal(col.view(np.int64), held.view(np.int64))


def _random_split(g, rng):
    side = rng.integers(-1, 2, size=g.node_count)
    return np.flatnonzero(side == 1), np.flatnonzero(side == -1)


class TestEdgeCounts:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 60), weighted=st.booleans(),
           whole=st.booleans(), block=st.sampled_from([3, 1 << 14]))
    @settings(max_examples=60, deadline=None)
    def test_row_pass_matches_all_edge_reference(self, seed, n, weighted, whole, block):
        # blocks of 3 entries split the degree and internal-weight sums
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_mod, "_GATHER_BLOCK", block)
            g = make_random_graph(n, 3 * n, seed=seed, weighted=weighted)
            rng = np.random.default_rng(seed)
            c1, c2 = _random_split(g, rng)
            if whole:  # every node in a band: the pass covers all rows
                c1 = np.setdiff1d(np.arange(g.node_count), c2)
            fast, ref = edge_counts(g, c1, c2), naive_edge_counts(g, c1, c2)
        if weighted:
            for name, value in vars(ref).items():
                assert getattr(fast, name) == pytest.approx(value, rel=1e-12, abs=1e-300)
        else:
            assert fast == ref

    def test_t3_two_vs_one(self, t3):
        c = edge_counts(t3, {0, 1}, {2})
        assert c.pos_across == 1.0
        assert c.neg_in_1 == 0.0 and c.neg_in_2 == 0.0
        assert c.boundary == 0.0
        assert c.neg_across == 1.0

    def test_t3_single_band(self, t3):
        c = edge_counts(t3, {0}, set())
        assert c.boundary == 2.0
        assert (
            c.pos_across == c.neg_in_1 == c.neg_in_2 == c.pos_in_1 == c.pos_in_2
            == c.neg_across == 0.0
        )

    def test_empty_sets_all_zero(self, t3):
        c = edge_counts(t3, set(), set())
        assert all(
            getattr(c, f) == 0.0
            for f in ("pos_across", "neg_in_1", "neg_in_2", "boundary",
                      "pos_in_1", "pos_in_2", "neg_across")
        )

    def test_overlap_rejected(self, t3):
        with pytest.raises(GraphError, match="overlap"):
            edge_counts(t3, {0}, {0})

    @pytest.mark.parametrize("bad", [[0, 3], [-1, 1], np.array([2, 7])])
    def test_index_out_of_range_rejected(self, t3, bad):
        with pytest.raises(GraphError, match="out of range"):
            edge_counts(t3, bad, [])
        with pytest.raises(GraphError, match="out of range"):
            community(t3, [], bad)
        with pytest.raises(GraphError, match="out of range"):
            seed_vector(t3, bad, [])

    def test_repeated_indices_collapse(self, t3):
        a = community(t3, [1, 0, 1], np.array([2, 2]))
        b = community(t3, {0, 1}, {2})
        assert a == b and a.c1 == (0, 1) and a.c2 == (2,)
        s = seed_vector(t3, [0, 0], np.array([2]))
        assert s.values.tobytes() == seed_vector(t3, {0}, {2}).values.tobytes()

    def test_community_builds_its_side_vector_once(self, monkeypatch):
        g = make_random_graph(30, 90, seed=3, weighted=True)
        c1, c2 = [0, 4, 4, 7], np.array([9, 2])
        expected = community(g, c1, c2)
        calls = {"_membership": 0, "edge_counts": 0}
        for name in calls:
            fn = getattr(graph_mod, name)

            def counting(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(graph_mod, name, counting)
        assert community(g, c1, c2) == expected
        assert calls == {"_membership": 1, "edge_counts": 1}

    def test_fields_account_every_incident_edge(self):
        g = make_random_graph(30, 90, seed=3, weighted=True)
        rng = np.random.default_rng(0)
        for _ in range(20):
            side = rng.integers(-1, 2, size=g.node_count)
            c1 = set(np.flatnonzero(side == 1).tolist())
            c2 = set(np.flatnonzero(side == -1).tolist())
            c = edge_counts(g, c1, c2)
            total = (
                c.pos_across + c.pos_in_1 + c.pos_in_2 + c.neg_across
                + c.neg_in_1 + c.neg_in_2 + c.boundary
            )
            union = c1 | c2
            e = g.adjacency.tocoo()
            expected = sum(
                abs(w)
                for u, v, w in zip(e.row.tolist(), e.col.tolist(), e.data.tolist())
                if u in union or v in union
            )
            assert total == pytest.approx(expected, rel=1e-13)


class TestBeta:
    def test_t3_values(self, t3):
        assert beta(t3, {0, 1}, {2}) == pytest.approx(1.0 / 3.0)
        assert beta(t3, {0}, {2}) == pytest.approx(1.0)

    def test_balanced_split_is_zero(self, balanced_path):
        assert beta(balanced_path, {0, 1}, {2}) == 0.0

    def test_empty_union_rejected(self, t3):
        with pytest.raises(GraphError):
            beta(t3, set(), set())

    def test_matches_scratch_oracle(self):
        g = make_random_graph(25, 60, seed=7, weighted=True)
        rng = np.random.default_rng(1)
        for _ in range(25):
            side = rng.integers(-1, 2, size=g.node_count)
            c1 = np.flatnonzero(side == 1)
            c2 = np.flatnonzero(side == -1)
            if len(c1) + len(c2) == 0:
                continue
            assert beta(g, c1, c2) == pytest.approx(
                scratch_beta(g, c1, c2), rel=1e-13
            )


class TestRayleigh:
    def test_t3_indicator(self, t3):
        assert rayleigh_quotient(t3, np.array([1.0, 1.0, -1.0])) == pytest.approx(
            2.0 / 3.0
        )

    def test_constant_vector_on_positive_graph(self):
        g = build_graph([("a", "b", 1.0), ("b", "c", 2.0)])
        assert rayleigh_quotient(g, np.ones(3)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_vector_rejected(self, t3):
        with pytest.raises(GraphError):
            rayleigh_quotient(t3, np.zeros(3))

    def test_indicator_closed_form_and_sandwich(self):
        # On +-1/0 indicators the quadratic form has the closed form
        # (4*pos_across + 4*neg_in + boundary) / vol and sandwiches the ratio.
        rng = np.random.default_rng(11)
        for trial in range(30):
            g = make_random_graph(20, 50, seed=100 + trial, weighted=trial % 2 == 0)
            side = rng.integers(-1, 2, size=g.node_count)
            c1 = np.flatnonzero(side == 1)
            c2 = np.flatnonzero(side == -1)
            if len(c1) + len(c2) == 0:
                continue
            x = indicator_vector(g, c1, c2)
            r = rayleigh_quotient(g, x)
            cm = community(g, c1, c2)
            closed = (
                4 * cm.counts.pos_across
                + 4 * cm.counts.neg_in_1
                + 4 * cm.counts.neg_in_2
                + cm.counts.boundary
            ) / cm.volume
            assert r == pytest.approx(closed, rel=1e-12)
            assert cm.beta <= r * (1 + 1e-12) + 1e-15
            assert r <= 4 * cm.beta * (1 + 1e-12) + 1e-15


class TestSeedVector:
    def test_t3_two_sided(self, t3):
        s = seed_vector(t3, {0}, {2})
        np.testing.assert_allclose(s.values, [0.5, 0.0, -0.5])
        np.testing.assert_array_equal(np.flatnonzero(s.values), [0, 2])
        assert t3.degrees @ (s.values**2) == pytest.approx(1.0, abs=1e-10)

    def test_one_sided(self, t3):
        s = seed_vector(t3, {0}, set())
        np.testing.assert_allclose(s.values, [1 / np.sqrt(2), 0.0, 0.0])

    def test_overlap_rejected(self, t3):
        with pytest.raises(GraphError):
            seed_vector(t3, {0}, {0})

    def test_empty_union_rejected(self, t3):
        with pytest.raises(GraphError):
            seed_vector(t3, set(), set())

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_normalization_property(self, seed):
        rng = np.random.default_rng(seed)
        g = make_random_graph(12, 20, seed=seed % 1000, weighted=True)
        side = rng.integers(-1, 2, size=g.node_count)
        s1 = set(np.flatnonzero(side == 1).tolist())
        s2 = set(np.flatnonzero(side == -1).tolist())
        if not (s1 | s2):
            s1 = {0}
        s = seed_vector(g, s1, s2)
        assert g.degrees @ (s.values**2) == pytest.approx(1.0, abs=1e-10)


class TestLargestComponent:
    def test_keeps_heavier_triangle(self):
        g = build_graph(
            [("a", "b", 5.0), ("b", "c", 5.0), ("a", "c", -5.0),
             ("x", "y", 1.0), ("y", "z", 1.0)]
        )
        sub, dropped_nodes, dropped_edges = largest_component(g)
        assert set(sub.labels) == {"a", "b", "c"}
        assert dropped_nodes == 3 and dropped_edges == 2

    def test_connected_graph_untouched(self, t3):
        sub, dn, de = largest_component(t3)
        assert sub is t3 and dn == 0 and de == 0

    @pytest.mark.parametrize("reverse_numbering", [False, True])
    @pytest.mark.parametrize("first", ["abc", "xyz"])
    def test_equal_volumes_keep_the_smallest_node_index(
        self, monkeypatch, first, reverse_numbering
    ):
        tri = {name: [(name[0], name[1], 1.0), (name[1], name[2], 1.0), (name[0], name[2], -1.0)]
               for name in ("abc", "xyz")}
        second = "xyz" if first == "abc" else "abc"
        g = build_graph(tri[first] + tri[second])
        if reverse_numbering:  # the tie-break must not rest on the search's numbering
            real = graph_mod.connected_components

            def reversed_components(*args, **kwargs):
                ncomp, comp = real(*args, **kwargs)
                return ncomp, ncomp - 1 - comp

            monkeypatch.setattr(graph_mod, "connected_components", reversed_components)
        sub, dropped_nodes, _ = largest_component(g)
        assert sub.labels == tuple(first) and dropped_nodes == 3

    @given(seed=st.integers(0, 10_000), sizes=st.lists(st.integers(2, 30), min_size=2, max_size=4),
           weighted=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_disconnected_input_matches_reference_on_the_component(self, seed, sizes, weighted):
        rows, parts = [], []
        for c, n in enumerate(sizes):
            part = make_random_graph(n, n, seed=seed + c, weighted=weighted).adjacency.tocoo()
            parts.append((f"c{c}:", 2 * float(np.abs(part.data).sum()), part.nnz))
            rows += [(f"c{c}:{u}", f"c{c}:{v}", w) for u, v, w in
                     zip(part.row.tolist(), part.col.tolist(), part.data.tolist())]
        order = np.random.default_rng(seed).permutation(len(rows))
        rows = [rows[i] for i in order]
        # the heaviest component; among equals, the one whose label comes first
        first = {}
        for r in rows:
            for lab in r[:2]:
                first.setdefault(lab.split(":")[0] + ":", len(first))
        prefix, _, edges = min(parts, key=lambda p: (-p[1], first[p[0]]))
        g = build_graph(rows)
        sub, dropped_nodes, dropped_edges = largest_component(g)
        ref = naive_build_graph([r for r in rows if r[0].startswith(prefix)])
        assert_same_graph(sub, ref)
        adj = sub.adjacency
        assert adj.indices.dtype == np.int32 and adj.has_canonical_format
        assert (dropped_nodes, dropped_edges) == (g.node_count - ref.node_count,
                                                  g.edge_count - edges)
