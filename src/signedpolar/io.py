"""Edge-list and ground-truth file handling.

A graph file is UTF-8 text. It is read in blocks of whole lines, about
256 KiB each, and each block is split into columns with numpy, without a
per-line Python loop; labels are numbered once the last block is read. The
grammar does not depend on where blocks end:

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
line; an error in an earlier block is reported first. Zero or non-finite
weights and self-loops are rejected when the graph is built.

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
# Token keys: a token shorter than 8 bytes is its bytes with its length in
# the top byte; a longer one is its serial number in a dict plus this.
_LONG_TOKEN = 0xFF << 56
# The file is read this many bytes at a time; a block ends after its last
# line break, so only a block's worth of offsets and masks exists at once,
# near a megabyte: the next block's reuse the memory they free.
_BLOCK_BYTES = 1 << 18
# Odd multiplier for multiplicative (Fibonacci) hashing of uint64 keys.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


class IngestError(ValueError):
    """Unparseable or empty input file."""


def read_edge_list(path) -> EdgeList:
    """Parse a ``u v w`` edge file (grammar in the module docstring).

    Labels are numbered in order of first appearance, ``u`` before ``v``.
    The file is parsed a block of lines at a time; each block writes a key
    per label and a weight per row into columns sized once, from a count
    of the file's line breaks, and the keys are numbered once at the end.
    """
    long_labels: dict[bytes, int] = {}
    lines = rows = 0
    with open(path, "rb") as fh:
        # Kept as per-block pieces and joined at the end, the columns held
        # the heap's freed memory resident between them, 30-60 MB that
        # varied from run to run on the local-100k file.
        cap = _line_bound(fh)
        key = np.empty(2 * cap, dtype=np.uint64)
        w = np.empty(cap)
        for raw in _blocks(fh):
            k, wb, lines = _read_block(path, raw, lines, long_labels)
            end = rows + len(wb)
            if end > cap:  # a file that cannot be rewound, or that grew
                cap = max(end, 2 * cap)
                key, w = np.resize(key, 2 * cap), np.resize(w, cap)
            key[2 * rows : 2 * end] = k
            w[rows:end] = wb
            rows = end
    if not rows:
        raise IngestError(f"{path}: no edges found")
    ids, _, distinct = _intern(key[: 2 * rows])  # ids reuses key's memory
    del key
    tokens = list(long_labels)
    labels = [
        (tokens[k - _LONG_TOKEN] if k >= _LONG_TOKEN else k.to_bytes(8, "little")[: k >> 56])
        .decode()
        for k in distinct.tolist()
    ]
    return EdgeList(labels, ids[0::2], ids[1::2], w[:rows])


def _line_bound(fh) -> int:
    """At least the number of lines in ``fh``, read through and rewound; 0
    if it cannot be rewound."""
    if not fh.seekable():
        return 0
    bound = 1
    while chunk := fh.read(_BLOCK_BYTES):
        bound += chunk.count(b"\n") + chunk.count(b"\r")
    fh.seek(0)
    return bound


def _blocks(fh):
    """The file's bytes in blocks of about ``_BLOCK_BYTES``, each ending
    after a line break except the last."""
    rest = b""
    while chunk := fh.read(_BLOCK_BYTES):
        block = rest + chunk
        # a \r at the very end may be the first half of \r\n
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        rest = block[cut:]
        if cut:
            yield block[:cut]
    if rest:
        yield rest


def _read_block(
    path, raw: bytes, line0: int, long_labels: dict[bytes, int]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse one block of whole lines, the first of them line ``line0 + 1``
    of the file. Returns the label keys ``u0, v0, u1, v1, ...`` (long labels
    numbered in ``long_labels``), the weights, and the lines read so far.
    """
    data = raw
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = line0 + _line_number(raw, exc.start)
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
        line = np.searchsorted(np.cumsum(per_line), 3 * bad_row, side="right")
        raise IngestError(f"{path}:{line0 + line + 1}: weight {token!r} is not a number")
    if bad_lines.size:
        line = int(bad_lines[0])
        lo = breaks[line - 1] + 1 if line else 0
        hi = breaks[line] if line < len(breaks) else len(raw)
        text = raw[lo:hi].decode().strip()
        raise IngestError(f"{path}:{line0 + line + 1}: expected 'u v w', got {text!r}")

    starts = rows[:, [0, 2]].ravel()  # u0, v0, u1, v1, ...
    keys = _token_keys(data, words, starts, rows[:, [1, 3]].ravel() - starts, long_labels)
    return keys, w, line0 + len(breaks)


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
    ids, first, _ = _intern(_token_keys(data, words, starts, lengths, {}))
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


def _token_keys(
    data: bytes,
    words: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    long_tokens: dict[bytes, int],
) -> np.ndarray:
    """One uint64 per token, equal exactly for equal tokens: the bytes and
    length of a token shorter than 8 bytes, else ``_LONG_TOKEN`` plus the
    token's number in ``long_tokens``, which numbers new tokens as it meets
    them."""
    key = words[starts] & _LOW_BYTES[np.minimum(lengths, 7)]
    key |= lengths.astype(np.uint64) << np.uint64(56)
    long = np.flatnonzero(lengths >= 8)
    if long.size:
        tokens = (data[a : a + n] for a, n in zip(starts[long].tolist(), lengths[long].tolist()))
        key[long] = np.uint64(_LONG_TOKEN) | np.fromiter(
            (long_tokens.setdefault(t, len(long_tokens)) for t in tokens),
            dtype=np.uint64,
            count=long.size,
        )
    return key


def _intern(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the keys so that equal keys share a number, in order of first
    appearance. Returns each key's number, written over ``key``'s memory,
    and per number the index of its first key and the key.
    """
    if not len(key):
        return key.view(np.int64), np.empty(0, dtype=np.int64), key
    order, skey = group_order(key)
    heads = np.flatnonzero(np.concatenate(([True], skey[1:] != skey[:-1])))
    distinct = skey[heads]
    del skey
    first = order[heads]  # each run is in index order
    by_first = np.argsort(first)
    rank = np.empty(len(heads), dtype=np.int64)
    rank[by_first] = np.arange(len(heads))
    ids = key.view(np.int64)
    ids[order] = np.repeat(rank, np.diff(heads, append=len(order)))
    return ids, first[by_first], distinct[by_first]


def group_order(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A permutation that brings equal keys together, each run in index
    order, and the keys in that order.

    It groups like ``np.argsort(key, kind="stable")``, but the runs come in
    hash order, not key order. One ``np.sort`` of uint64 words, each a hash
    of a key above its index, is several times faster than an argsort. If
    two different keys share a hash, the stable argsort is used instead.
    """
    key = np.asarray(key).astype(np.uint64, copy=False)
    bits = np.uint64(max(1, (len(key) - 1).bit_length()))
    low = (np.uint64(1) << bits) - np.uint64(1)
    packed = key * _HASH_MULT
    packed &= ~low
    packed |= np.arange(len(key), dtype=np.uint64)
    packed.sort()
    order = (packed & low).view(np.int64)
    packed >>= bits
    hash_changes = np.count_nonzero(packed[1:] != packed[:-1])
    del packed
    skey = key[order]
    # equal keys share a hash, so the keys change more often only if two
    # different keys share a hash
    if np.count_nonzero(skey[1:] != skey[:-1]) != hash_changes:
        order = np.argsort(key, kind="stable")
        skey = key[order]
    return order, skey


def write_edge_list(path, g: SignedGraph) -> None:
    """Write ``g``'s edges as ``u v w`` lines, in ``(u, v)`` order, so that
    :func:`read_edge_list` reads back each label's ``str()`` and each weight.

    A label whose ``str()`` is not one token under ``str.split()``, or holds
    ``#``, raises :class:`GraphError` before the file is opened. Weights get
    17 significant digits, which read back as the same float; ``1.0`` is
    written as ``1``.
    """
    names = [str(label) for label in g.labels]
    for name in names:
        if name.split() != [name] or "#" in name:
            raise GraphError(f"label {name!r} cannot be written as one token")
    edges = g.adjacency.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, w in zip(edges.row.tolist(), edges.col.tolist(), edges.data.tolist()):
            fh.write(f"{names[u]} {names[v]} {w:.17g}\n")


def ingest(path, directed: bool = False) -> SignedGraph:
    """Load a graph file and restrict it to its largest connected component.

    With ``directed`` set, reciprocal entries are symmetrized by averaging:
    each line contributes half its weight to the undirected pair, so a pair
    listed in both directions averages and an antisymmetric pair cancels
    away. Dropped node/edge counts are logged.
    """
    try:
        # No name here holds the edge list, so build_graph frees it before
        # it builds the graph's arrays.
        g = build_graph(_read_symmetrized(path, directed))
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


def _read_symmetrized(path, directed: bool) -> EdgeList:
    edges = read_edge_list(path)
    return replace(edges, w=0.5 * edges.w) if directed else edges


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
