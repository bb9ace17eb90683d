"""The columnar reader and builder against the per-line references in
``oracle``: same labels, edges, degrees and errors, bit for bit."""

import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from io import BytesIO
from pathlib import Path

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
        pool=st.lists(st.text("0123456789.-+e_x", min_size=1, max_size=20), min_size=1,
                      max_size=12),
        picks=st.lists(st.integers(0, 11), min_size=1, max_size=60),
        block=st.sampled_from([1, 3, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_read_as_float_reads_them(self, pool, picks, block):
        # a few distinct tokens of every length, many sharing their first
        # 8 bytes, each repeated; the first token float() rejects is named
        tokens = [pool[i % len(pool)] for i in picks]
        want, bad = [], -1
        for i, t in enumerate(tokens):
            try:
                want.append(float(t))
            except ValueError:
                bad = i
                break
        data = " ".join(tokens).encode()
        lengths = np.array([len(t) for t in tokens])
        starts = np.concatenate(([0], np.cumsum(lengths + 1)[:-1]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_mod, "_GATHER_BLOCK", block)
            values, got_bad = io_mod._parse_weights(data, io_mod._byte_words(data),
                                                    starts, lengths)
        assert got_bad == bad
        if bad < 0:
            assert values.tolist() == want

    def test_long_weights_that_repeat_match_reference(self, tmp_path, monkeypatch):
        # %f weights of 8 to 15 bytes, near twins that share their first 8
        # bytes, and repr weights past 15, across blocks on both threads
        monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 1 << 10)
        rng = np.random.default_rng(5)
        choices = ["1.000000", "-1.000000", "1.0000005", "1.00000050", "1.000000e+00",
                   "12345678.5", "-12345678.5", "0.30000000000000004", "2"]
        rows = [f"n{rng.integers(50)} m{rng.integers(50)} {choices[k]}"
                for k in rng.integers(len(choices), size=2_000)]
        path = tmp_path / "g.edges"
        path.write_text("\n".join(rows) + "\n")
        assert_matches_reference(path)
        rows[1_500] = rows[1_500].rsplit(" ", 1)[0] + " 1.00000x0"
        rows[1_700] = rows[1_700].rsplit(" ", 1)[0] + " 1.0000y00"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestError, match=r":1501: weight '1.00000x0' is not a number"):
            read_edge_list(path)

    def test_eight_byte_weight_ends_the_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b -1.00000\nb c 1.000000")
        assert read_edge_list(path).w.tolist() == [-1.0, 1.0]
        assert_matches_reference(path)

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

    def test_ascii_space_mask_matches_str_isspace(self):
        every_byte = np.arange(256, dtype=np.uint8)
        expected = [c < 128 and chr(c).isspace() for c in range(256)]
        assert io_mod._ascii_space_mask(every_byte).tolist() == expected

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


def _record_parses(monkeypatch):
    """Wrap io._read_block to record, call by call, the thread that ran it
    and the block it parsed."""
    seen = []
    real = io_mod._read_block

    def recorded(path, raw, *args):
        seen.append((threading.current_thread(), raw))
        return real(path, raw, *args)

    monkeypatch.setattr(io_mod, "_read_block", recorded)
    return seen


def _parsed_on(seen, row: bytes) -> str:
    """Which thread first parsed the block holding ``row``."""
    thread = next(t for t, raw in seen if row in raw)
    if thread is threading.current_thread():
        return "caller"
    assert thread.name.startswith("signedpolar-worker"), thread.name
    return "worker"


def _row(i: int, weight: str = "1") -> bytes:
    return f"n{i:05d} m{i:05d} {weight}\n".encode()  # 16 bytes


# Rows of one width and blocks of ten of them: blocks 0, 2 and 4 (lines
# 1-10, 21-30, 41-50) go to the worker, 1, 3 and 5 to the caller.
_ROWS_PER_BLOCK = 10
_BAD_ROWS = {
    "weight": (lambda i: _row(i, "x"), "weight 'x' is not a number"),
    "count": (lambda i: f"n{i:05d} m{i:05d}  \n".encode(), "expected 'u v w', got"),
    "utf8": (lambda i: b"n%05d \xff%05d 1\n" % (i, i), "byte 0xff is not valid UTF-8"),
}


def _six_blocks(tmp_path, monkeypatch, bad: dict[int, bytes], width: int = 16):
    path = tmp_path / "g.edges"
    path.write_bytes(b"".join(bad.get(i, _row(i)) for i in range(1, 61)))
    monkeypatch.setattr(io_mod, "_BLOCK_BYTES", width * _ROWS_PER_BLOCK)
    with open(path, "rb") as fh:
        assert [len(b) for b in io_mod._blocks(fh)] == [width * _ROWS_PER_BLOCK] * 6
    return path


def _exit_zero_if_same_ingest(path, want):
    got = ingest(path)
    same = got.labels == want.labels and np.array_equal(got.degrees, want.degrees) and all(
        np.array_equal(getattr(got.adjacency, name), getattr(want.adjacency, name))
        for name in ("indptr", "indices", "data"))
    sys.exit(0 if same else 3)


class TestTwoThreadParse:
    """read_edge_list parses blocks in pairs, the first of each on the
    shared worker thread and the second on the caller, and keeps file
    order for the columns, the long labels and the first error."""

    def test_work_is_split_between_the_caller_and_the_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 1 << 16)
        path = _generated_file(tmp_path)
        seen = _record_parses(monkeypatch)
        assert_matches_reference(path)
        caller = sum(t is threading.current_thread() for t, _ in seen)
        worker = sum(t.name.startswith("signedpolar-worker") for t, _ in seen)
        assert len(seen) >= 4 and caller + worker == len(seen)
        assert worker == len(seen) // 2 and caller == len(seen) - worker

    def test_one_block_file_stays_on_the_caller(self, tmp_path, monkeypatch):
        path = tmp_path / "g.edges"
        path.write_text("a b 1\nb c -1\n")
        seen = _record_parses(monkeypatch)
        assert read_edge_list(path).labels == ["a", "b", "c"]
        assert [t for t, _ in seen] == [threading.current_thread()]

    @pytest.mark.parametrize("kind", sorted(_BAD_ROWS))
    @pytest.mark.parametrize("first, second, side", [(25, 35, "worker"), (15, 25, "caller")])
    def test_first_error_wins_on_either_thread(self, tmp_path, monkeypatch, kind,
                                               first, second, side):
        make_first, message = _BAD_ROWS[kind]
        make_second = _BAD_ROWS["count" if kind == "weight" else "weight"][0]
        path = _six_blocks(tmp_path, monkeypatch, {first: make_first(first),
                                                   second: make_second(second)})
        seen = _record_parses(monkeypatch)
        with pytest.raises(IngestError) as err:
            read_edge_list(path)
        assert str(err.value).startswith(f"{path}:{first}: {message}")
        assert _parsed_on(seen, make_first(first)) == side
        # a worker's error wins over the caller's, found side by side; a
        # caller's error stops the read before the next pair
        second_parses = [t for t, raw in seen if make_second(second) in raw]
        assert second_parses == ([threading.current_thread()] if side == "worker" else [])
        if kind != "utf8":  # the reference reader raises UnicodeDecodeError
            assert _outcome(_fast, path) == _outcome(_reference, path)

    def test_long_labels_across_the_handoff(self, tmp_path, monkeypatch):
        # 32-byte rows of 14-byte labels; the shared labels appear first in
        # a worker block and again in a later caller block (a), the other
        # way round (b), and in both blocks of a pair and a later one (c)
        shared = {5: ("a", 0), 35: ("a", 1), 15: ("b", 1), 25: ("b", 0),
                  22: ("c", 0), 28: ("c", 1), 33: ("c", 0)}
        rows = []
        for i in range(1, 61):
            ends = [f"node-{2 * i:09d}", f"node-{2 * i + 1:09d}"]
            if i in shared:
                name, side = shared[i]
                ends[side] = f"shared-label-{name}"
            rows.append(f"{ends[0]} {ends[1]} 1\n".encode())
        path = _six_blocks(tmp_path, monkeypatch, dict(enumerate(rows, 1)), width=32)
        seen = _record_parses(monkeypatch)
        assert_matches_reference(path)
        sides = [_parsed_on(seen, rows[i - 1]) for i in (5, 35, 15, 25, 22, 28, 33)]
        assert sides == ["worker", "caller", "caller", "worker", "worker", "worker", "caller"]
        order = list(dict.fromkeys(t for r in rows for t in r.decode().split()[:2]))
        assert read_edge_list(path).labels == order

    def test_forked_child_ingests_like_its_parent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 1 << 16)
        path = _generated_file(tmp_path)
        want = ingest(path)  # the parent's worker is running now
        child = multiprocessing.get_context("fork").Process(
            target=_exit_zero_if_same_ingest, args=(path, want))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            pytest.fail("the forked child's ingest did not finish")
        assert child.exitcode == 0

    def test_one_worker_thread_serves_ingest_and_matvecs(self, tmp_path):
        path = _generated_file(tmp_path)
        src = str(Path(io_mod.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from signedpolar import generate_scaled, io, laplacian_apply, spectral\n"
            "io._BLOCK_BYTES = 1 << 16\n"
            "parsers, parse = set(), io._read_block\n"
            "def recorded(*args):\n"
            "    parsers.add(threading.current_thread())\n"
            "    return parse(*args)\n"
            "io._read_block = recorded\n"
            "io.ingest(sys.argv[1])\n"
            "g, _ = generate_scaled(12000, 24.0, rng_seed=1)\n"
            "assert g.adjacency.nnz >= spectral._CONCURRENT_NNZ\n"
            "laplacian_apply(g, np.ones(g.node_count))\n"
            "live = {t for t in threading.enumerate() if t.name.startswith('signedpolar-worker')}\n"
            "print(len(live), live == parsers - {threading.current_thread()})\n"
        )
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        # one live worker, and it is the thread that parsed the worker's blocks
        assert done.stdout.split() == ["1", "True"]
