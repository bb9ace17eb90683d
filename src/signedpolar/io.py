"""Edge-list and ground-truth file handling.

A graph file is UTF-8 text. It is read in blocks of whole lines, about
256 KiB each, and each block is split into columns with numpy, without a
per-line Python loop; labels are numbered once the last block is read.
Blocks are parsed two at a time, the first of each pair on the process's
one worker thread (the one that also runs half of each large matvec) and
the second on the calling thread; numpy releases the interpreter lock for
most of the work, so the two overlap. The caller then numbers the pair's
long labels, and takes its rows and line counts, in file order, so the
result, and any error raised, are those of a parse one block after the
other. A file of one block is parsed on the caller alone. The grammar does
not depend on where blocks end:

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
    _index_dtype,
    _or_positions,
    _shared_worker,
    _spans,
    build_graph,
    largest_component,
)
from .synth import GroundTruth

logger = logging.getLogger(__name__)

# Whitespace as str.split() sees it: the ASCII bytes 9-13 and 28-32 (see
# _ascii_space_mask), and the other str.isspace() characters as UTF-8.
_UNICODE_SPACES = tuple(
    c.encode() for c in "\x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000"
) + tuple(chr(c).encode() for c in range(0x2000, 0x200B))

_LOW_BYTES = np.array([(1 << (8 * k)) - 1 for k in range(8)], dtype=np.uint64)
# Token keys: a token shorter than 8 bytes is its bytes with its length in
# the top byte; a longer one is this plus its index in the block, and for a
# label then this plus its number among the file's long labels.
_LONG_TOKEN = 0xFF << 56
# The file is read this many bytes at a time; a block ends after its last
# line break. Two blocks are parsed at once, one on each thread, so only two
# blocks' worth of offsets and masks exists at once, a megabyte or two: the
# next blocks' reuse the memory they free.
_BLOCK_BYTES = 1 << 18
# Odd multiplier for multiplicative (Fibonacci) hashing of uint64 keys.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


class IngestError(ValueError):
    """Unparseable or empty input file."""


def read_edge_list(path) -> EdgeList:
    """Parse a ``u v w`` edge file (grammar in the module docstring).

    Labels are numbered in order of first appearance, ``u`` before ``v``;
    the ids are int32 when the labels fit, int64 past that. The file is
    parsed a block of lines at a time, two blocks at once: the shared
    worker thread parses one while this thread parses the next (see
    :func:`_parsed_blocks`). Block by block, in file order, this thread
    numbers each block's long labels (:func:`_number_long`) and writes a
    key per label and a weight per row into columns sized once, from a
    count of the file's line breaks, and :func:`_number_ends` numbers the
    keys at the end.
    """
    long_labels: dict[bytes, int] = {}
    rows = 0
    with open(path, "rb") as fh:
        # Kept as per-block pieces and joined at the end, the columns held
        # the heap's freed memory resident between them, 30-60 MB that
        # varied from run to run on the local-100k file.
        cap = _line_bound(fh)
        ukey, vkey, w = np.empty(cap, np.uint64), np.empty(cap, np.uint64), np.empty(cap)
        for k, long, wb in _parsed_blocks(path, _blocks(fh)):
            _number_long(k, long, long_labels)
            end = rows + len(wb)
            if end > cap:  # a file that cannot be rewound, or that grew
                cap = max(end, 2 * cap)
                ukey, vkey, w = (np.resize(a, cap) for a in (ukey, vkey, w))
            ukey[rows:end] = k[0::2]
            vkey[rows:end] = k[1::2]
            w[rows:end] = wb
            rows = end
            del k, long, wb  # freed before the next block is parsed
    if not rows:
        raise IngestError(f"{path}: no edges found")
    u, v, distinct = _number_ends(ukey[:rows], vkey[:rows])
    del ukey, vkey
    tokens = list(long_labels)
    labels = [
        (tokens[k - _LONG_TOKEN] if k >= _LONG_TOKEN else k.to_bytes(8, "little")[: k >> 56])
        .decode()
        for k in distinct.tolist()
    ]
    return EdgeList(labels, u, v, w[:rows])


def _parsed_blocks(path, blocks):
    """Each block's label keys, long labels and weights (see
    :func:`_read_block`), in file order.

    The blocks are parsed in pairs: the shared worker thread parses the
    first while this thread parses the second, so at most two are in
    flight; a last block without a partner, the whole file if it is one
    block, is parsed here. Neither half of a pair knows the line it starts
    on, so each counts its lines from 0 and the counts are added here, in
    file order. A block that raises is parsed again here, at its turn, with
    its real first line, so the error reported is the first in the file and
    names its file line.
    """
    lines = 0
    blocks = iter(blocks)
    for raw in blocks:
        after = next(blocks, None)
        if after is None:
            *parsed, _ = _read_block(path, raw, lines)
            yield parsed
            return
        ahead = _shared_worker().submit(_read_apart, path, raw)
        here = _read_apart(path, after)
        for block, parsed in ((raw, ahead.result()), (after, here)):
            if parsed is None:
                _read_block(path, block, lines)  # raises, now naming the file line
            *parsed, count = parsed
            lines += count
            yield parsed
        # hold no block of this pair, nor its results, while the next pair
        # is parsed
        del raw, after, ahead, here, block, parsed


def _read_apart(path, raw: bytes):
    """:func:`_read_block` on ``raw`` alone, as if it began the file, or
    None if it raises :class:`IngestError`."""
    try:
        return _read_block(path, raw, 0)
    except IngestError:
        return None


def _number_long(keys: np.ndarray, long: list[bytes], long_labels: dict[bytes, int]):
    """Key the long labels of a block, ``long`` in their order in ``keys``,
    by ``_LONG_TOKEN`` plus their numbers in ``long_labels``, which numbers
    new labels as it meets them. This is one dictionary lookup per label,
    made on this thread in file order: a dict per block, renumbered here,
    took two, and read a file of 11-byte labels half again as slowly as a
    parse on one thread."""
    if long:
        keys[keys >= np.uint64(_LONG_TOKEN)] = np.uint64(_LONG_TOKEN) | np.fromiter(
            (long_labels.setdefault(t, len(long_labels)) for t in long),
            dtype=np.uint64,
            count=len(long),
        )


def _number_ends(ukey: np.ndarray, vkey: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the label keys of the two endpoint columns together, in order
    of first appearance, row by row and ``u`` before ``v``. Returns the
    ``u`` and ``v`` numbers, int32 if they fit, and the keys in number
    order. Both key columns are overwritten.

    Each column is interned by itself, and the two numberings are merged
    through their distinct keys. An array of all the file's keys, 41.6 MB
    at 2.6M rows, is above glibc's largest mmap threshold (32 MiB), so it
    and its work array were mapped afresh on every ingest instead of
    taken from the heap that the previous graph had freed, and in some
    ``local-100k`` runs they set the peak RSS.
    """
    (iu, fu, du), (iv, fv, dv) = _intern(ukey), _intern(vkey)
    # row r's u is position 2r of the file's stream of labels, its v 2r + 1
    by_position = np.argsort(np.concatenate([2 * fu, 2 * fv + 1]))
    number, _, distinct = _intern(np.concatenate([du, dv])[by_position])
    joint = np.empty(len(number), dtype=np.int64)
    joint[by_position] = number
    idx = _index_dtype(len(distinct))
    ends = []
    for ids, to_joint in ((iu, joint[: len(du)]), (iv, joint[len(du) :])):
        out = np.empty(len(ids), dtype=idx)
        for a, b in _spans(len(ids)):
            out[a:b] = to_joint[ids[a:b]]
        ends.append(out)
    return ends[0], ends[1], distinct


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
        block, rest = block[:cut], block[cut:]
        del chunk  # while a block is parsed, hold no other copy of it
        if cut:
            yield block
    if rest:
        yield rest


def _read_block(path, raw: bytes, line0: int) -> tuple[np.ndarray, list[bytes], np.ndarray, int]:
    """Parse one block of whole lines, the first of them line ``line0 + 1``
    of the file. Returns the label keys ``u0, v0, u1, v1, ...`` (see
    :func:`_token_keys`), the labels of 8 bytes or more in that order, the
    weights, and the number of lines in the block.
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
    # The label and weight columns are copied out of rows, and each is
    # freed once used, so that the token work, which sets the parse's peak
    # memory, reuses theirs; two blocks are parsed at once.
    starts = rows[:, 0:4:2].reshape(-1)  # u0, v0, u1, v1, ...
    lengths = (rows[:, 1:4:2] - rows[:, 0:4:2]).reshape(-1)
    wstarts, wlengths = rows[:, 4].copy(), rows[:, 5] - rows[:, 4]
    del bounds, rows
    keys = _token_keys(words, starts, lengths)
    is_long = lengths >= 8
    long = [data[a : a + n] for a, n in zip(starts[is_long].tolist(), lengths[is_long].tolist())]
    del starts, lengths, is_long
    w, bad_row = _parse_weights(data, words, wstarts, wlengths)
    if bad_row >= 0:
        token = raw[wstarts[bad_row] : wstarts[bad_row] + wlengths[bad_row]].decode()
        line = np.searchsorted(np.cumsum(per_line), 3 * bad_row, side="right")
        raise IngestError(f"{path}:{line0 + line + 1}: weight {token!r} is not a number")
    if bad_lines.size:
        line = int(bad_lines[0])
        lo = breaks[line - 1] + 1 if line else 0
        hi = breaks[line] if line < len(breaks) else len(raw)
        text = raw[lo:hi].decode().strip()
        raise IngestError(f"{path}:{line0 + line + 1}: expected 'u v w', got {text!r}")
    return keys, long, w, len(breaks)


def _split(buf: np.ndarray, has_comments: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token offsets as ``start, end, start, end, ...``, the number of
    tokens on each line, and the offsets of the line breaks."""
    breaks = np.flatnonzero(_line_break_mask(buf))
    sep = _ascii_space_mask(buf)
    if has_comments:
        sep |= _comment_mask(buf, breaks)
    bounds = np.flatnonzero(np.diff(sep, prepend=True, append=True))
    # the tokens that start before each break, less those of earlier lines
    per_line = np.diff(np.searchsorted(bounds[0::2], breaks), prepend=0,
                       append=len(bounds) // 2)
    return bounds, per_line, breaks


def _ascii_space_mask(buf: np.ndarray) -> np.ndarray:
    """True at the ASCII whitespace bytes: 9-13, 28-31 and 32. Three
    comparisons, through one uint8 array that wraps below 0, take a tenth
    of the time of a lookup in a 256-entry table."""
    sep = buf == 32
    shifted = buf - np.uint8(9)
    sep |= shifted <= 4
    shifted -= np.uint8(28 - 9)
    sep |= shifted <= 3
    return sep


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

    Weight columns repeat few distinct tokens (often just ``1`` and ``-1``,
    or ``%f``'s ``1.000000`` and ``-1.000000``), so each distinct token of
    up to 15 bytes is converted once. A token of 8 to 15 bytes is keyed by
    the numbers of its first 8 bytes and of the rest, each numbered among
    the block's. A longer one, such as a float's ``repr`` (17 digits), has
    a key of its own (see :func:`_token_keys`) and is converted by itself.
    """
    key = _token_keys(words, starts, lengths)
    mid = np.flatnonzero((lengths >= 8) & (lengths < 16))
    if mid.size:
        head = _intern(words[starts[mid]])[0]
        # the rest of an 8-byte token is empty, keyed 0 from any start;
        # the block's last byte stands in for one past its end
        rest = np.minimum(starts[mid] + 8, len(data) - 1)
        tail = _intern(_token_keys(words, rest, lengths[mid] - 8))[0]
        head *= mid.size
        head += tail
        key[mid] = np.uint64(_LONG_TOKEN | 1 << 55) | head.view(np.uint64)
    ids, first, _ = _intern(key)
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


def _token_keys(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One uint64 per token: the bytes and length of a token shorter than 8
    bytes, equal exactly for equal tokens, and ``_LONG_TOKEN`` plus its
    index for a longer one."""
    key = words[starts] & _LOW_BYTES[np.minimum(lengths, 7)]
    key |= lengths.astype(np.uint64) << np.uint64(56)
    long = np.flatnonzero(lengths >= 8)
    key[long] = np.uint64(_LONG_TOKEN) | long.astype(np.uint64)
    return key


def _intern(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the uint64 keys so that equal keys share a number, in order of
    first appearance. Returns each key's number as int64, written over
    ``key``'s memory, and per number the index of its first key and the key.

    Equal keys are brought together by one ``np.sort`` of uint64 words, each
    a hash of a key above its index, several times faster than a stable
    argsort; the sorted words then become the order, runs in hash order and
    each run in index order. If two different keys share a hash, a stable
    argsort orders the keys instead. The order is the one work array as
    long as the keys: the runs are found and numbered a block of
    ``graph._GATHER_BLOCK`` entries at a time.
    """
    if not len(key):
        return key.view(np.int64), np.empty(0, dtype=np.int64), key
    bits = np.uint64(max(1, (len(key) - 1).bit_length()))
    low = (np.uint64(1) << bits) - np.uint64(1)
    words = key * _HASH_MULT
    words &= ~low
    _or_positions(words)
    words.sort()
    words &= low
    order = words.view(np.int64)
    heads = _run_heads(key, order)
    hashes = (key[order[heads]] * _HASH_MULT) >> bits
    if np.any(hashes[1:] == hashes[:-1]):  # two different keys share a hash
        order[:] = np.argsort(key, kind="stable")
        heads = _run_heads(key, order)
    first = order[heads]  # each run is in index order
    by_first = np.argsort(first)
    distinct = key[first[by_first]]
    rank = np.empty(len(heads), dtype=np.int64)
    rank[by_first] = np.arange(len(heads))
    ids = key.view(np.int64)
    for a, b in _spans(len(order)):
        # the runs that meet positions a to b - 1, and how many of those each holds
        i, j = np.searchsorted(heads, (a, b - 1), side="right")
        ids[order[a:b]] = np.repeat(rank[i - 1 : j], np.diff(heads[i:j], prepend=a, append=b))
    return ids, first[by_first], distinct


def _run_heads(key: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The positions in ``order`` at which the key changes, 0 first."""
    heads = [np.zeros(1, dtype=np.int64)]
    for a, b in _spans(len(order) - 1):
        k = key[order[a : b + 1]]
        heads.append(np.flatnonzero(k[1:] != k[:-1]) + (a + 1))
    return np.concatenate(heads)


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
