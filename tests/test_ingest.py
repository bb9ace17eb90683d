"""The columnar reader and builder against the per-line references in
``oracle``: same labels, edges, degrees and errors, bit for bit."""

import tracemalloc
from dataclasses import replace
from io import BytesIO

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import signedpolar.graph as graph_mod
from signedpolar import (
    EdgeList,
    GraphError,
    IngestError,
    build_graph,
    ingest,
    query,
    random_signed_graph,
    read_edge_list,
)
from signedpolar import io as io_mod
from signedpolar.cli import EXIT_DATA, main
from signedpolar.oracle import naive_build_graph, naive_degrees, naive_read_edge_list
from signedpolar import synth as synth_mod
from signedpolar.synth import SynthParams, generate
from conftest import assert_same_graph


def _fast(path, directed=False):
    edges = read_edge_list(path)
    if directed:
        edges = replace(edges, w=0.5 * edges.w)
    return build_graph(edges)


def _reference(path, directed=False):
    edges = naive_read_edge_list(path)
    if directed:
        edges = [(u, v, 0.5 * w) for u, v, w in edges]
    return naive_build_graph(edges)


def _outcome(build, path, directed=False):
    try:
        return build(path, directed)
    except (IngestError, GraphError) as exc:
        return type(exc), str(exc)


def assert_matches_reference(path, directed=False):
    fast = _outcome(_fast, path, directed)
    ref = _outcome(_reference, path, directed)
    if isinstance(ref, tuple):
        assert fast == ref
    else:
        assert not isinstance(fast, tuple), fast
        assert_same_graph(fast, ref)


LABELS = (
    "a", "b", "ab", "abc", "n1", "n10", "n100", "12345678", "123456789",
    "abcdefgh", "abcdefghi", "abcdefghijklmnopq", "abcdefghijklmnopqr",
    "é", "ノード", "xéyézéwé", "n\x00", "n",
)
WEIGHTS = (
    "1", "-1", "2", "-2", "+3", "0.5", "-0.25", "1e-3", "-2E2", "1_000",
    "0.1", "0.2", "-0.3", "1e16", "007", "١",
)
SEPARATORS = (" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
              "\xa0", "\u2003", "\u3000", "\x85")
ENDINGS = ("\n", "\r\n", "\r")

_sep = st.sampled_from(SEPARATORS)
_space = st.lists(_sep, max_size=2).map("".join)
_comment = st.sampled_from(("", "#", "##", "# note", "#a b 1", "# a # b 1", "# \xa0x"))
_weight = st.one_of(
    st.sampled_from(WEIGHTS),
    st.floats(-1e300, 1e300).filter(bool).map(repr),
)
_edge_line = st.tuples(
    _space, st.sampled_from(LABELS), _sep, st.sampled_from(LABELS), _sep,
    _weight, _space, _comment,
).map("".join)
_other_line = st.one_of(_space, st.tuples(_space, _comment).map("".join))
_line = st.one_of(_edge_line, _edge_line, _edge_line, _other_line)


@st.composite
def edge_files(draw):
    lines = draw(st.lists(_line, min_size=1, max_size=40))
    # repeat some rows as-is and as cancelling reversed pairs
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.sampled_from(lines))
        lines.append(row)
        parts = row.split("#")[0].split()
        if len(parts) == 3 and parts[2] in WEIGHTS[:6]:
            neg = parts[2][1:] if parts[2].startswith("-") else "-" + parts[2]
            lines.append(f"{parts[1]} {parts[0]} {neg}")
    order = draw(st.permutations(range(len(lines))))
    endings = draw(st.lists(st.sampled_from(ENDINGS), min_size=len(lines), max_size=len(lines)))
    text = "".join(lines[i] + e for i, e in zip(order, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


class TestReferenceEquivalence:
    @given(text=edge_files(), directed=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_reader_and_builder_match_reference(self, tmp_path_factory, text, directed):
        path = tmp_path_factory.mktemp("prop") / "g.edges"
        path.write_bytes(text.encode())
        assert_matches_reference(path, directed)

    @given(text=edge_files(), directed=st.booleans(), block=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_tiny_blocks_match_reference(self, tmp_path_factory, text, directed, block):
        # blocks this small split \r\n pairs, comments, long labels and
        # multi-byte characters wherever a cut could land
        path = tmp_path_factory.mktemp("prop") / "g.edges"
        path.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io_mod, "_BLOCK_BYTES", block)
            assert_matches_reference(path, directed)

    @given(text=edge_files())
    @settings(max_examples=100, deadline=None)
    def test_line_bound_covers_the_lines_and_rewinds(self, text):
        # bytes.splitlines ends lines at \n, \r\n and \r, as the grammar does
        data = text.encode()
        fh = BytesIO(data)
        assert io_mod._line_bound(fh) >= len(data.splitlines())
        assert fh.tell() == 0

    def test_line_bound_of_an_unseekable_file_is_zero(self):
        class Pipe(BytesIO):
            def seekable(self):
                return False

        fh = Pipe(b"a b 1\n")
        assert io_mod._line_bound(fh) == 0
        assert fh.tell() == 0

    @pytest.mark.parametrize("bound", [0, 1, 7])
    def test_columns_grow_past_a_low_line_bound(self, tmp_path, monkeypatch, bound):
        monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 64)
        monkeypatch.setattr(io_mod, "_line_bound", lambda fh: bound)
        assert_matches_reference(_generated_file(tmp_path))

    def test_blocks_end_after_line_breaks(self, monkeypatch):
        monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 4)
        text = b"a b 1\r\nc d 1\re f 1\ng h 1"
        blocks = list(io_mod._blocks(BytesIO(text)))
        assert b"".join(blocks) == text
        assert blocks == [b"a b 1\r\n", b"c d 1\r", b"e f 1\n", b"g h 1"]

    def test_repeated_pair_sums_in_row_order(self, tmp_path):
        # (1e16 + 1) + 1 == 1e16, but 1e16 + (1 + 1) does not
        path = tmp_path / "g.edges"
        path.write_text("a b 1e16\nb a 1\na b 1\nb c 1\n")
        assert _fast(path).adjacency.data[0] == 1e16
        assert_matches_reference(path)

    def test_one_pair_repeated_many_times(self, tmp_path):
        weights = np.random.default_rng(2).uniform(-1, 1, 200_000).tolist()
        rows = [f"a b {x!r}" for x in weights] + ["b c 1", "c a -1"]
        path = tmp_path / "g.edges"
        path.write_text("\n".join(rows) + "\n")
        assert _fast(path).edge_count == 3
        assert_matches_reference(path)

    def test_many_repeated_pairs_of_mixed_lengths(self, tmp_path):
        # 150 pairs, each repeated 1 to 399 times, their rows interleaved
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 400, 150)
        pairs = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(pairs)
        weights = rng.uniform(-1, 1, len(pairs)).tolist()
        rows = [f"n{p} m{p % 7} {x!r}" for p, x in zip(pairs.tolist(), weights)]
        path = tmp_path / "g.edges"
        path.write_text("\n".join(rows) + "\n")
        assert _fast(path).edge_count == len(sizes)
        assert_matches_reference(path)

    def test_hash_collisions_in_grouping_fall_back(self, tmp_path, monkeypatch):
        path = tmp_path / "g.edges"
        path.write_text("a b 1\nb c 2\nc a 3\nb a 1\na b 0.5\nd a 1\n")
        monkeypatch.setattr(io_mod, "_HASH_MULT", np.uint64(0))  # every key collides
        monkeypatch.setattr(graph_mod, "_GATHER_BLOCK", 2)
        assert_matches_reference(path)
        ids, first, distinct = io_mod._intern(np.array([5, 3, 5, 3, 9, 5], dtype=np.uint64))
        assert ids.tolist() == [0, 1, 0, 1, 2, 0]
        assert first.tolist() == [0, 1, 4] and distinct.tolist() == [5, 3, 9]

    @given(
        keys=st.lists(st.integers(0, 40), max_size=200)
        | st.lists(st.integers(0, 2**64 - 1), max_size=200),
        block=st.sampled_from([1, 2, 3, 7, 64]),
        collide=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_intern_numbers_keys_by_first_appearance(self, keys, block, collide):
        index: dict[int, int] = {}
        first = []
        for i, k in enumerate(keys):
            if k not in index:
                index[k] = len(index)
                first.append(i)
        # blocks of a few entries put runs across block ends; a zero hash
        # multiplier makes every key collide, so the argsort orders them
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_mod, "_GATHER_BLOCK", block)
            if collide:
                patch.setattr(io_mod, "_HASH_MULT", np.uint64(0))
            ids, got_first, distinct = io_mod._intern(np.array(keys, dtype=np.uint64))
        assert ids.dtype == np.int64
        assert ids.tolist() == [index[k] for k in keys]
        assert got_first.tolist() == first
        assert distinct.tolist() == list(index)

    def test_nonascii_space_separates_tokens(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a\xa0b\u30001\nb\u2003c\x85-1\n")
        edges = read_edge_list(path)
        assert edges.labels == ["a", "b", "c"]
        assert_matches_reference(path)

    def test_unicode_space_table_matches_str_isspace(self):
        expected = {chr(c).encode() for c in range(0x80, 0x110000) if chr(c).isspace()}
        assert set(io_mod._UNICODE_SPACES) == expected

    def test_edge_list_length_is_row_count(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b 1\n# skip\n\nb a 1\nb c -2\n")
        edges = read_edge_list(path)
        assert len(edges) == 3
        assert edges.labels == ["a", "b", "c"]
        assert edges.u.tolist() == [0, 1, 1] and edges.v.tolist() == [1, 0, 2]


def _big_file(tmp_path, bad_line):
    rows = [f"n{i} n{(i * 7 + 1) % 10_000} {1 if i % 3 else -1}" for i in range(10_000)]
    rows[4_999] = bad_line
    path = tmp_path / "big.edges"
    path.write_text("# header\n" + "\n".join(rows) + "\n")
    return path


class TestErrors:
    @pytest.mark.parametrize(
        "bad_line",
        [
            "n1 n2",
            "n1 n2 1 extra",
            "n1",
            "n1 n2 abc",
            "n1 n2 1..2",
            "n1 n2 0",
            "n1 n2 -0",
            "n1 n2 nan",
            "n1 n2 inf",
            "n1 n2 -Infinity",
            "n7 n7 1",
        ],
    )
    def test_bad_row_in_the_middle(self, tmp_path, bad_line):
        path = _big_file(tmp_path, bad_line)
        fast = _outcome(_fast, path)
        assert isinstance(fast, tuple)
        assert fast == _outcome(_reference, path)
        if fast[0] is IngestError:
            assert f"{path}:5001:" in fast[1]

    def test_first_error_wins(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b 1\na c x\na b c d\n")
        assert _outcome(_fast, path) == _outcome(_reference, path)
        path.write_text("a b 1\na b c d\na c x\n")
        assert _outcome(_fast, path) == _outcome(_reference, path)

    @pytest.mark.parametrize("block", [64, 1000, 1 << 22])
    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("n1 n2 x", "n1 n2", ":3000: weight 'x' is not a number"),
            ("n1 n2", "n1 n2 x", ":3000: expected 'u v w', got 'n1 n2'"),
            ("n1 n2 1 1", "n1 n2 x", ":3000: expected 'u v w', got 'n1 n2 1 1'"),
        ],
    )
    def test_later_block_errors_name_file_lines(
        self, tmp_path, monkeypatch, block, first, second, message
    ):
        monkeypatch.setattr(io_mod, "_BLOCK_BYTES", block)
        rows = [f"n{i} n{i + 1} 1" for i in range(9_000)]
        rows[2_999] = first
        rows[6_999] = second
        path = tmp_path / "g.edges"
        path.write_text("\r\n".join(rows) + "\r\n")
        fast = _outcome(_fast, path)
        assert fast == _outcome(_reference, path)
        assert fast[0] is IngestError and f"{path}{message}" in fast[1]

    def test_undecodable_byte_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 100)
        path = tmp_path / "g.edges"
        path.write_bytes(b"a b 1\n" * 500 + b"c \xff 1\n" + b"a b 1\n" * 10)
        with pytest.raises(IngestError, match=r"g\.edges:501: byte 0xff is not valid UTF-8"):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"")
        with pytest.raises(IngestError, match="no edges found"):
            ingest(path)
        assert _outcome(_fast, path) == _outcome(_reference, path)

    def test_all_cancelled(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b 1\nb a -1\n")
        with pytest.raises(IngestError, match="all edges cancelled"):
            ingest(path)
        assert _outcome(_fast, path) == _outcome(_reference, path)

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"a b 1\r\nb c 1\rc \xff 1\n")
        with pytest.raises(IngestError, match=r"g\.edges:3: byte 0xff is not valid UTF-8"):
            ingest(path)

    def test_undecodable_byte_is_a_data_error_in_the_cli(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_bytes(b"a b 1\nb \xff 1\n")
        assert main(["query", "--graph", str(path), "--s1", "a"]) == EXIT_DATA
        assert ":2: byte 0xff" in capsys.readouterr().err


def _weights_by_label_pair(g):
    e = g.adjacency.tocoo()
    return {frozenset((g.labels[a], g.labels[b])): w
            for a, b, w in zip(e.row.tolist(), e.col.tolist(), e.data.tolist())}


class TestBuilderInputs:
    def test_edge_list_keeps_label_order_without_unused_labels(self):
        edges = EdgeList(["x", "y", "z", "unused"], np.array([2, 0]), np.array([0, 1]),
                         np.array([1.0, -2.0]))
        g = build_graph(edges)
        ref = naive_build_graph([("x", "y", -2.0), ("z", "x", 1.0)])
        assert_same_graph(g, ref)

    def test_reader_ids_are_int32_and_any_width_builds_the_same_graph(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(graph_mod, "_GATHER_BLOCK", 5)
        edges = read_edge_list(_generated_file(tmp_path))
        assert edges.u.dtype == np.int32 and edges.v.dtype == np.int32
        columns = [a.copy() for a in (edges.u, edges.v, edges.w)]
        g = build_graph(edges)
        for a, b in zip((edges.u, edges.v, edges.w), columns):
            assert np.array_equal(a, b)  # building leaves them unwritten
        wide = replace(edges, u=edges.u.astype(np.int64), v=edges.v.astype(np.int64))
        assert_same_graph(build_graph(wide), g)
        # an unused label in front makes the build renumber every row
        shifted = EdgeList(["unused", *edges.labels], edges.u + 1, edges.v + 1, edges.w)
        assert_same_graph(build_graph(shifted), g)

    def test_edge_list_index_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(EdgeList(["a", "b"], np.array([0]), np.array([2]), np.array([1.0])))

    def test_edge_list_labels_must_be_distinct(self):
        with pytest.raises(GraphError, match="not distinct"):
            build_graph(EdgeList(["a", "a"], np.array([0]), np.array([1]), np.array([1.0])))

    def test_degrees_match_add_at_reference(self):
        # weighted sums depend on the order of their terms, so this pins it
        g = random_signed_graph(300, 3000, rng_seed=4, weighted=True)
        deg, _ = naive_degrees(g)
        assert np.array_equal(g.degrees, deg)

    def test_tuples_of_other_lengths_rejected(self):
        with pytest.raises(GraphError, match="triple"):
            build_graph([("a", "b", 1.0), ("a", "c", 1.0, 5)])

    @given(seed=st.integers(0, 10_000), eta=st.sampled_from([0.0, 0.1, 0.4]))
    @settings(max_examples=15, deadline=None)
    def test_generate_matches_tuple_reference(self, seed, eta):
        seen = []

        def capture(edges):
            seen.append(edges)
            return build_graph(edges)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synth_mod, "build_graph", capture)
            generate(SynthParams(pairs=2, band_size=4, outliers=3, eta=eta, rng_seed=seed))
        (edges,) = seen
        g = build_graph(edges)
        used = set(edges.u.tolist()) | set(edges.v.tolist())
        assert g.labels == tuple(lab for i, lab in enumerate(edges.labels) if i in used)
        # the (label, label, float) tuples that generate used to pass number
        # the nodes by first appearance: the same graph keyed by label
        rows = [(edges.labels[a], edges.labels[b], float(w))
                for a, b, w in zip(edges.u, edges.v, edges.w)]
        ref = naive_build_graph(rows)
        assert set(g.labels) == set(ref.labels)
        assert _weights_by_label_pair(g) == _weights_by_label_pair(ref)
        deg, _ = naive_degrees(ref)
        assert dict(zip(g.labels, g.degrees.tolist())) == dict(zip(ref.labels, deg.tolist()))


class TestConnectivityMemo:
    @pytest.mark.parametrize("extra", ["", "x y 1\n"])
    def test_ingest_and_query_search_components_once(self, tmp_path, monkeypatch, extra):
        path = tmp_path / "g.edges"
        path.write_text("a b 1\nc d 1\na c -1\nb d -1\na e 1\n" + extra)
        calls = []
        real = graph_mod.connected_components

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(graph_mod, "connected_components", counting)
        g = ingest(path)
        query(g, ["a"], ["c"], kappa=0.5)
        query(g, ["b"], ["d"], kappa=0.5)
        assert len(calls) == 1
        assert g.is_connected()


def _generated_file(tmp_path):
    """A weighted random graph written with reversed and split duplicate
    rows, so the merge has work to do."""
    g = random_signed_graph(3_000, 30_000, rng_seed=6, weighted=True)
    e = g.adjacency.tocoo()
    rows = [f"{g.labels[u]} {g.labels[v]} {w!r}" for u, v, w in
            zip(e.row.tolist(), e.col.tolist(), e.data.tolist())]
    rows += [f"{g.labels[v]} {g.labels[u]} 0.25" for u, v in
             zip(e.row[::7].tolist(), e.col[::7].tolist())]
    path = tmp_path / "gen.edges"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestLeanBuild:
    def test_generated_file_gives_the_reference_graph(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 1 << 14)
        path = _generated_file(tmp_path)
        g = ingest(path)
        assert_same_graph(g, naive_build_graph(naive_read_edge_list(path)))
        # the adjacency the COO route builds, with duplicates summed
        n, m = g.node_count, g.edge_count
        e = g.adjacency.tocoo()
        ref = sp.csr_matrix(
            (np.concatenate([e.data, e.data]),
             (np.concatenate([e.row, e.col]), np.concatenate([e.col, e.row]))),
            shape=(n, n),
        )
        ref.sum_duplicates()
        upper = sp.triu(ref, k=1, format="csr")
        adj = g.adjacency
        assert adj.indices.dtype == np.int32 and adj.indptr.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(adj, name), getattr(upper, name)), name
        assert adj.nnz == m and adj.has_sorted_indices

    def test_ingest_peak_is_a_small_multiple_of_the_graph(self, tmp_path, monkeypatch):
        # With the file in many blocks, ingest holds about one graph's worth
        # of temporaries at a time, besides the reader's block and the
        # labels. They include int32 endpoint columns, 8 bytes an edge
        # beyond the graph's own U and degrees, so the allowance is 2.75x
        # both.
        monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 1 << 16)
        path = _generated_file(tmp_path)
        tracemalloc.start()
        try:
            g = ingest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adj = g.adjacency
        arrays = (adj.data, adj.indices, adj.indptr, g.degrees)
        assert peak <= 2.75 * (sum(a.nbytes for a in arrays) + 8 * g.edge_count)
