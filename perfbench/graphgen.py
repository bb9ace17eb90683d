"""Benchmark-owned signed-graph generator with planted, checkable answers.

Planted pairs are the noiseless case (``eta = 0``) of the band-pair model of
Bonchi et al., "Discovering polarized communities in signed networks" (CIKM
2019): every pair of nodes inside a band is a positive edge and every pair
across the two bands of a pair is a negative edge. The pairs are planted
into a random signed background as sparse cuts: background ("filler") edges
join filler nodes only, and each planted node gets exactly ``bridges`` edges
to random filler nodes.

Everything descends from one ``numpy.random.default_rng(seed)`` stream, so
a seed reproduces the edge file and the truth file byte for byte.

Run as a script it writes the ``local-100k`` input:

    python3 perfbench/graphgen.py --seed 1 --edges g.edges --truth g.truth.json
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# A planted pair passes the self-check only if its ratio is at most this
# share of the ratio of a random split of the whole graph (about 0.375).
SPARSE_CUT_SHARE = 0.25


@dataclass(frozen=True)
class GenSpec:
    """Graph shape; the defaults are the ``local-100k`` input."""

    nodes: int = 100_000
    avg_degree: float = 52.0
    pairs: int = 8
    band_size: int = 20
    bridges: int = 2


@dataclass
class Instance:
    """Edges over dense ids ``0..n-1`` plus the external labels.

    ``eu < ev`` elementwise and every unordered pair occurs once. Planted
    pair ``p`` owns ids ``[2pm, 2pm + m)`` (band 0) and ``[2pm + m, 2pm + 2m)``
    (band 1); ``labels`` is a random permutation, so planted nodes are not
    recognizable by label.
    """

    spec: GenSpec
    eu: np.ndarray
    ev: np.ndarray
    ew: np.ndarray
    labels: np.ndarray

    @property
    def planted(self) -> int:
        return 2 * self.spec.pairs * self.spec.band_size

    def pair_ids(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        m = self.spec.band_size
        base = 2 * p * m
        return np.arange(base, base + m), np.arange(base + m, base + 2 * m)

    def pair_labels(self, p: int) -> tuple[list[str], list[str]]:
        a, b = self.pair_ids(p)
        return [str(x) for x in self.labels[a]], [str(x) for x in self.labels[b]]


def _dedupe(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (sort-based, no hashing)."""
    keys = np.sort(keys)
    if len(keys) == 0:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _planted_edges(spec: GenSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = spec.band_size
    iu, iv = np.triu_indices(2 * m, k=1)
    sign = np.where((iu < m) == (iv < m), 1, -1).astype(np.int8)
    offset = np.repeat(np.arange(spec.pairs, dtype=np.int64) * 2 * m, len(iu))
    return (np.tile(iu, spec.pairs) + offset, np.tile(iv, spec.pairs) + offset,
            np.tile(sign, spec.pairs))


def generate(spec: GenSpec, seed: int) -> Instance:
    """Sample one instance; the same (spec, seed) gives the same arrays."""
    rng = np.random.default_rng(seed)
    n = spec.nodes
    planted = 2 * spec.pairs * spec.band_size
    filler = n - planted
    if filler < max(2, spec.bridges + 1):
        raise ValueError("too few filler nodes for the planted structure")

    pu, pv, pw = _planted_edges(spec)

    # Bridges: each planted node gets `bridges` distinct filler neighbours.
    bu = np.repeat(np.arange(planted, dtype=np.int64), spec.bridges)
    bv = np.empty(planted * spec.bridges, dtype=np.int64)
    for i in range(planted):
        bv[i * spec.bridges:(i + 1) * spec.bridges] = planted + rng.choice(
            filler, size=spec.bridges, replace=False
        )
    bw = np.where(rng.random(len(bu)) < 0.5, 1, -1).astype(np.int8)

    # Filler: uniform random distinct pairs among filler nodes, in random
    # order, with balanced random signs.
    target = int(round(n * spec.avg_degree / 2.0))
    budget = target - len(pu) - len(bu)
    if budget <= 0:
        raise ValueError("average degree too low for the planted structure")
    keys = np.zeros(0, dtype=np.int64)
    while len(keys) < budget:
        draw = rng.integers(0, filler, size=(budget + budget // 50 + 64, 2))
        draw = draw[draw[:, 0] != draw[:, 1]]
        lo = np.minimum(draw[:, 0], draw[:, 1]).astype(np.int64)
        hi = np.maximum(draw[:, 0], draw[:, 1]).astype(np.int64)
        keys = _dedupe(np.concatenate([keys, lo * filler + hi]))
    keys = keys[rng.permutation(len(keys))[:budget]]
    fu = keys // filler + planted
    fv = keys % filler + planted
    fw = np.where(rng.random(budget) < 0.5, 1, -1).astype(np.int8)

    eu = np.concatenate([pu, bu, fu]).astype(np.int64)
    ev = np.concatenate([pv, bv, fv]).astype(np.int64)
    ew = np.concatenate([pw, bw, fw]).astype(np.int8)
    order = rng.permutation(len(eu))
    labels = rng.permutation(n).astype(np.int64)
    return Instance(spec=spec, eu=eu[order], ev=ev[order], ew=ew[order], labels=labels)


def write_edges(inst: Instance, path) -> None:
    """Write ``u v w`` lines with external labels."""
    text = "\n".join(
        map("{} {} {}".format,
            inst.labels[inst.eu].tolist(),
            inst.labels[inst.ev].tolist(),
            inst.ew.tolist())
    ) + "\n"
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii"))


def write_truth(inst: Instance, checked: dict, path) -> None:
    """Write the planted pairs (as labels) and what :func:`self_check`
    found, which is all the workload needs to check its answers."""
    doc = {"pairs": [list(inst.pair_labels(p)) for p in range(inst.spec.pairs)], **checked}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def degrees(inst: Instance) -> np.ndarray:
    n = inst.spec.nodes
    aw = np.abs(inst.ew).astype(np.float64)
    return np.bincount(inst.eu, aw, minlength=n) + np.bincount(inst.ev, aw, minlength=n)


def beta_of(eu, ev, ew, deg, side) -> float:
    """Signed bipartiteness ratio of the bands ``side == 1`` / ``side == -1``
    (``side`` is an int8 vector over node ids), counted from edge arrays:
    twice the positive weight across the bands, plus the negative weight
    inside a band, plus every boundary edge, over the volume of the union."""
    su = side[eu].astype(np.int16)
    sv = side[ev].astype(np.int16)
    w = ew.astype(np.float64)
    aw = np.abs(w)
    inside_u = su != 0
    inside_v = sv != 0
    prod = su * sv
    num = 2.0 * w[(w > 0) & (prod == -1)].sum()
    num += aw[(w < 0) & (prod == 1)].sum()
    num += aw[inside_u != inside_v].sum()
    vol = deg[side != 0].sum()
    return float(num / vol)


def pair_beta(inst: Instance, p: int) -> float:
    a, b = inst.pair_ids(p)
    side = np.zeros(inst.spec.nodes, dtype=np.int8)
    side[a] = 1
    side[b] = -1
    return beta_of(inst.eu, inst.ev, inst.ew, degrees(inst), side)


def self_check(inst: Instance, seed: int = 0) -> dict:
    """Confirm the instance is what the workloads assume.

    The graph is connected with no duplicate pair, and every planted pair is
    a sparse cut: its ratio is at most ``SPARSE_CUT_SHARE`` times the ratio
    of a random split of the whole graph. Raises ``ValueError`` otherwise.
    """
    n = inst.spec.nodes
    lo = np.minimum(inst.eu, inst.ev)
    hi = np.maximum(inst.eu, inst.ev)
    if np.any(lo == hi):
        raise ValueError("self-loop in generated edges")
    if len(_dedupe(lo * n + hi)) != len(lo):
        raise ValueError("duplicate pair in generated edges")
    adj = coo_matrix((np.ones(len(lo)), (lo, hi)), shape=(n, n))
    ncomp, _ = connected_components(adj, directed=False)
    if ncomp != 1:
        raise ValueError(f"generated graph has {ncomp} components")
    deg = degrees(inst)
    side = np.where(np.random.default_rng(seed).random(n) < 0.5, 1, -1).astype(np.int8)
    background = beta_of(inst.eu, inst.ev, inst.ew, deg, side)
    planted = [pair_beta(inst, p) for p in range(inst.spec.pairs)]
    for p, b in enumerate(planted):
        if not b <= SPARSE_CUT_SHARE * background:
            raise ValueError(
                f"planted pair {p} is not a sparse cut: beta {b:.4f} vs "
                f"background {background:.4f}"
            )
    return {"background_beta": background, "planted_beta": planted, "edges": len(lo)}


def write_instance(spec: GenSpec, seed: int, edges_path, truth_path) -> None:
    """Generate, self-check and write one instance."""
    inst = generate(spec, seed)
    write_truth(inst, self_check(inst, seed), truth_path)
    write_edges(inst, edges_path)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="Write the local-100k edge and truth files.")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--edges", required=True)
    ap.add_argument("--truth", required=True)
    args = ap.parse_args(argv)
    write_instance(GenSpec(), args.seed, args.edges, args.truth)


if __name__ == "__main__":
    main()
