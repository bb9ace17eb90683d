"""Edge-list and ground-truth file handling.

A graph file is UTF-8 text. It is read whole and split into columns with
numpy, without a per-line Python loop. Its grammar:

* Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``; the last line may lack
  an ending. Error messages number lines from 1.
* ``#`` starts a comment that runs to the end of its line.
* Tokens are separated by whitespace as ``str.split()`` defines it: space,
  ``\\t``, ``\\v``, ``\\f``, ``\\x1c``-``\\x1f``, and the non-ASCII spaces of
  ``str.isspace`` (NBSP, ``\\u2000``-``\\u200a``, ``\\u3000`` and the rest).
  A non-ASCII space separates tokens like any other space.
* A line holds no token (blank or comment only) or exactly three, ``u v w``.
  ``u`` and ``v`` are opaque labels. ``w`` is a signed real, read as
  Python's ``float()`` reads it (``1``, ``-0.5``, ``2e-3``, ``1_000``).

Bytes that are not UTF-8, a line with another token count, a weight that is
not a number, and a file without edges raise :class:`IngestError` naming the
line. Zero or non-finite weights and self-loops are rejected when the graph
is built.

Ground truth is JSON of the form
``{"pairs": [[[labels...], [labels...]], ...], "outliers": [...]}``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .graph import (
    EdgeList,
    GraphError,
    SignedGraph,
    build_graph,
    group_order,
    largest_component,
)
from .synth import GroundTruth

logger = logging.getLogger(__name__)

# Whitespace as str.split() sees it: a byte table for ASCII, and the other
# str.isspace() characters as UTF-8.
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_UNICODE_SPACES = tuple(
    c.encode() for c in "\x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000"
) + tuple(chr(c).encode() for c in range(0x2000, 0x200B))

_LOW_BYTES = np.array([(1 << (8 * k)) - 1 for k in range(8)], dtype=np.uint64)


class IngestError(ValueError):
    """Unparseable or empty input file."""


def read_edge_list(path) -> EdgeList:
    """Parse a ``u v w`` edge file (grammar in the module docstring).

    Labels are numbered in order of first appearance, ``u`` before ``v``.
    """
    raw = Path(path).read_bytes()
    data = raw
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = _line_number(raw, exc.start)
            raise IngestError(
                f"{path}:{lineno}: byte {raw[exc.start]:#04x} is not valid UTF-8"
            ) from None
        for space in _UNICODE_SPACES:  # same byte length, so offsets hold
            data = data.replace(space, b" " * len(space))
    buf = np.frombuffer(data, dtype=np.uint8)

    bounds, per_line, breaks = _split(buf, has_comments=b"#" in data)
    bad_lines = np.flatnonzero((per_line != 0) & (per_line != 3))
    if bad_lines.size:
        # Rows above the first bad line are still read: a bad weight there
        # is the first error in the file.
        bounds = bounds[: 2 * per_line[: bad_lines[0]].sum()]
    rows = bounds.reshape(-1, 6)  # start and end of u, of v and of w

    words = _byte_words(data)
    w, bad_row = _parse_weights(data, words, rows[:, 4], rows[:, 5] - rows[:, 4])
    if bad_row >= 0:
        token = raw[rows[bad_row, 4] : rows[bad_row, 5]].decode()
        lineno = np.searchsorted(np.cumsum(per_line), 3 * bad_row, side="right") + 1
        raise IngestError(f"{path}:{lineno}: weight {token!r} is not a number")
    if bad_lines.size:
        line = int(bad_lines[0])
        lo = breaks[line - 1] + 1 if line else 0
        hi = breaks[line] if line < len(breaks) else len(raw)
        text = raw[lo:hi].decode().strip()
        raise IngestError(f"{path}:{line + 1}: expected 'u v w', got {text!r}")
    if not len(w):
        raise IngestError(f"{path}: no edges found")

    lab_starts = rows[:, [0, 2]].ravel()  # u0, v0, u1, v1, ...
    lab_lengths = rows[:, [1, 3]].ravel() - lab_starts
    del bounds, rows  # the largest arrays so far; free them before interning
    ids, first = _intern(data, words, lab_starts, lab_lengths)
    labels = [
        raw[a : a + n].decode()
        for a, n in zip(lab_starts[first].tolist(), lab_lengths[first].tolist())
    ]
    return EdgeList(labels, ids[0::2], ids[1::2], w)


def _split(buf: np.ndarray, has_comments: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token offsets as ``start, end, start, end, ...``, the number of
    tokens on each line, and the offsets of the line breaks."""
    is_break = _line_break_mask(buf)
    breaks = np.flatnonzero(is_break)
    sep = _ASCII_SPACE[buf]
    if has_comments:
        sep |= _comment_mask(buf, breaks)
    bounds = np.flatnonzero(np.diff(sep, prepend=True, append=True))
    # In the merged stream of token starts and line breaks, a line's tokens
    # are the gap between its break and the one before.
    sep[:] = is_break
    sep[bounds[0::2]] = True
    events = np.flatnonzero(sep)
    break_events = np.flatnonzero(is_break[events])
    per_line = np.diff(break_events, prepend=-1, append=len(events)) - 1
    return bounds, per_line, breaks


def _line_number(raw: bytes, pos: int) -> int:
    """1-based number of the line holding byte ``pos``."""
    head = raw[:pos]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _line_break_mask(buf: np.ndarray) -> np.ndarray:
    """True at the bytes that end a line: every ``\\n``, and every ``\\r``
    not followed by ``\\n``."""
    is_break = buf == 10
    cr = buf == 13
    cr[:-1] &= ~is_break[1:]
    is_break |= cr
    return is_break


def _comment_mask(buf: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """True from the first ``#`` of each line up to the end of that line."""
    hashes = np.flatnonzero(buf == ord("#"))
    line = np.searchsorted(breaks, hashes)
    first = np.concatenate(([True], line[1:] != line[:-1]))
    hashes, line = hashes[first], line[first]
    step = np.zeros(len(buf) + 1, dtype=np.int8)
    step[hashes] = 1
    step[np.append(breaks, len(buf))[line]] = -1
    return np.cumsum(step[:-1], dtype=np.int8).view(bool)


def _parse_weights(
    data: bytes, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, int]:
    """Read each token as Python's ``float()`` reads it. Returns the values
    and the index of the first token it rejects (-1 if none).

    Weight columns repeat few distinct tokens (often just ``1`` and ``-1``),
    so each distinct token is converted once.
    """
    ids, first = _intern(data, words, starts, lengths)
    values = np.empty(len(first))
    for k, (a, n) in enumerate(zip(starts[first].tolist(), lengths[first].tolist())):
        try:
            values[k] = float(data[a : a + n].decode())
        except ValueError:
            return values, int(first[k])
    return values[ids], -1


def _byte_words(data: bytes) -> np.ndarray:
    """A view whose element ``p`` is the little-endian uint64 made of bytes
    ``p`` to ``p + 7`` of ``data`` (zero past its end)."""
    padded = np.frombuffer(data + bytes(8 + -len(data) % 8), dtype="<u8")
    return as_strided(padded, shape=(len(data),), strides=(1,))


def _intern(
    data: bytes, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Number the tokens so that equal tokens share a number, in order of
    first appearance. Returns each token's number and, per number, the
    index of its first token.

    Tokens shorter than 8 bytes are packed into one uint64 key each (their
    bytes plus their length) and grouped by one :func:`group_order`. Longer
    tokens go through a dict.
    """
    if not len(starts):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if int(lengths.max()) >= 8:
        return _intern_dict(data, starts, lengths)
    key = _word(words, starts, lengths) | (lengths.astype(np.uint64) << np.uint64(56))
    order, skey = group_order(key)
    heads = np.flatnonzero(np.concatenate(([True], skey[1:] != skey[:-1])))
    first = order[heads]  # each run is in token order
    by_first = np.argsort(first)
    rank = np.empty(len(heads), dtype=np.int64)
    rank[by_first] = np.arange(len(heads))
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.repeat(rank, np.diff(np.append(heads, len(order))))
    return ids, first[by_first]


def _word(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The bytes of each token, shorter than 8, as a little-endian uint64."""
    return words[starts] & _LOW_BYTES[lengths]


def _intern_dict(
    data: bytes, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_intern` through a dict of token bytes."""
    index: dict[bytes, int] = {}
    tokens = (data[a : a + n] for a, n in zip(starts.tolist(), lengths.tolist()))
    ids = np.fromiter(
        (index.setdefault(t, len(index)) for t in tokens), dtype=np.int64, count=len(starts)
    )
    first = np.flatnonzero(np.diff(np.maximum.accumulate(ids), prepend=-1) > 0)
    return ids, first


def write_edge_list(path, g: SignedGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
            fh.write(f"{g.labels[u]} {g.labels[v]} {w:.12g}\n")


def ingest(path, directed: bool = False) -> SignedGraph:
    """Load a graph file and restrict it to its largest connected component.

    With ``directed`` set, reciprocal entries are symmetrized by averaging:
    each line contributes half its weight to the undirected pair, so a pair
    listed in both directions averages and an antisymmetric pair cancels
    away. Dropped node/edge counts are logged.
    """
    edges = read_edge_list(path)
    if directed:
        edges = replace(edges, w=0.5 * edges.w)
    try:
        g = build_graph(edges)
    except GraphError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    g, dropped_nodes, dropped_edges = largest_component(g)
    if dropped_nodes or dropped_edges:
        logger.warning(
            "%s: kept largest component, dropped %d nodes and %d edges",
            path,
            dropped_nodes,
            dropped_edges,
        )
    return g


def write_ground_truth(path, truth: GroundTruth) -> None:
    doc = {
        "pairs": [[sorted(a), sorted(b)] for a, b in truth.pairs],
        "outliers": sorted(truth.outliers),
        "restricted_to_lcc": truth.restricted_to_lcc,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_ground_truth(path) -> GroundTruth:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return GroundTruth(
        pairs=tuple((frozenset(a), frozenset(b)) for a, b in doc["pairs"]),
        outliers=frozenset(doc.get("outliers", [])),
        restricted_to_lcc=bool(doc.get("restricted_to_lcc", False)),
    )
