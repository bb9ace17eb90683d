"""Random polarized-graph generators.

``generate`` plants p antagonistic band pairs of equal size and perturbs
edge signs with a noise parameter eta; ``generate_scaled`` produces large
sparse instances with a prescribed average degree for timing runs.

Determinism contract: for a fixed seed the edge list and ground truth are
reproduced byte-for-byte. Node pairs are examined in lexicographic (u, v)
order against a single PCG64 uniform stream (``numpy.random.default_rng``),
one draw per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import EdgeList, SignedGraph, build_graph, largest_component


class SynthError(ValueError):
    """Degenerate generator parameters."""


@dataclass(frozen=True)
class SynthParams:
    pairs: int
    band_size: int
    outliers: int = 0
    eta: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.pairs < 1 or self.band_size < 1 or self.outliers < 0:
            raise SynthError("pairs >= 1, band_size >= 1, outliers >= 0 required")
        if not 0.0 <= self.eta <= 1.0:
            raise SynthError(f"eta must lie in [0, 1], got {self.eta}")

    @property
    def node_count(self) -> int:
        return 2 * self.pairs * self.band_size + self.outliers


@dataclass(frozen=True)
class GroundTruth:
    """Planted community pairs and outliers, as label sets.

    ``restricted_to_lcc`` flags that a disconnected sample was cut down to
    its largest component, with the truth sets filtered accordingly.
    """

    pairs: tuple[tuple[frozenset, frozenset], ...]
    outliers: frozenset
    restricted_to_lcc: bool = field(default=False)


def _labels(n: int) -> list[str]:
    return [f"n{i}" for i in range(n)]


def reference_average_degree(params: SynthParams) -> float:
    """Expected node degree of ``generate`` inside a planted band."""
    n, m, eta = params.node_count, params.band_size, params.eta
    return (m - 1) * (1 - eta / 2) + m * (1 - eta / 2) + (n - 2 * m) * eta


def _restrict_truth(truth: GroundTruth, kept: set) -> GroundTruth:
    pairs = []
    for a, b in truth.pairs:
        a2, b2 = a & kept, b & kept
        if a2 or b2:
            pairs.append((frozenset(a2), frozenset(b2)))
    return GroundTruth(
        pairs=tuple(pairs),
        outliers=truth.outliers & kept,
        restricted_to_lcc=True,
    )


def _signs(u: np.ndarray, same_pair: np.ndarray, same_band: np.ndarray, eta: float) -> np.ndarray:
    """Each node pair's sign under :func:`generate`'s three-case rule, from
    its uniform draw ``u``; 0 is no edge."""
    lo = u < 1.0 - eta
    mid = u < 1.0 - eta / 2.0
    within = same_pair & same_band
    cross = same_pair & ~same_band
    other = ~same_pair & ~lo
    sign = np.zeros(len(u), dtype=np.int8)
    sign[within & lo] = 1
    sign[within & ~lo & mid] = -1
    sign[cross & lo] = -1
    sign[cross & ~lo & mid] = 1
    sign[other & mid] = 1
    sign[other & ~mid] = -1
    return sign


def _with_truth(
    g: SignedGraph, labels: list[str], pairs: int, m: int, outliers
) -> tuple[SignedGraph, GroundTruth]:
    """``g`` with its planted truth, pair ``p`` being the bands
    ``labels[2pm : 2pm+m]`` and the ``m`` labels after them. A graph that is
    disconnected or lacks some of ``labels`` is restricted to its largest
    component and the truth filtered to it."""
    truth = GroundTruth(
        pairs=tuple(
            (frozenset(labels[a : a + m]), frozenset(labels[a + m : a + 2 * m]))
            for a in range(0, 2 * pairs * m, 2 * m)
        ),
        outliers=frozenset(outliers),
    )
    if not g.is_connected() or g.node_count < len(labels):
        g, _, _ = largest_component(g)
        truth = _restrict_truth(truth, set(g.labels))
    return g, truth


def generate(params: SynthParams) -> tuple[SignedGraph, GroundTruth]:
    """Sample a polarized graph under the three-case edge-noise rule.

    For each unordered node pair, with u ~ Uniform[0, 1):
      within a band:   positive if u < 1-eta, negative if u < 1-eta/2, else none;
      across the two bands of a pair: negative if u < 1-eta, positive if
      u < 1-eta/2, else none;
      any other pair:  none if u < 1-eta, positive if u < 1-eta/2, else negative.

    A disconnected sample is restricted to its largest component and the
    ground truth filtered to the surviving labels (flagged on the result).
    """
    n = params.node_count
    m = params.band_size
    eta = params.eta
    labels = _labels(n)

    pair_id = np.full(n, -1, dtype=np.int64)
    band_id = np.full(n, -1, dtype=np.int64)
    for p in range(params.pairs):
        base = 2 * p * m
        pair_id[base : base + 2 * m] = p
        band_id[base : base + m] = 0
        band_id[base + m : base + 2 * m] = 1

    iu, iv = np.triu_indices(n, k=1)  # row-major: lexicographic (u, v) order
    rng = np.random.default_rng(params.rng_seed)
    u = rng.random(len(iu))

    same_pair = (pair_id[iu] == pair_id[iv]) & (pair_id[iu] >= 0)
    sign = _signs(u, same_pair, band_id[iu] == band_id[iv], eta)

    keep = sign != 0
    if not keep.any():
        raise SynthError("parameters produced an empty graph")
    g = build_graph(EdgeList(labels, iu[keep], iv[keep], sign[keep].astype(np.float64)))
    return _with_truth(g, labels, params.pairs, m, labels[2 * params.pairs * m :])


def random_signed_graph(
    n: int,
    extra_edges: int,
    rng_seed: int = 0,
    weighted: bool = False,
    neg_fraction: float = 0.5,
) -> SignedGraph:
    """Small random connected graph for randomized checks.

    A random spanning tree guarantees connectivity; ``extra_edges`` further
    pairs are added on top. Signs are negative with ``neg_fraction``
    probability; ``weighted`` draws magnitudes from Uniform[0.5, 2).
    """
    if n < 2:
        raise SynthError("need at least two nodes")
    rng = np.random.default_rng(rng_seed)
    labels = _labels(n)
    seen = set()
    eu, ev = [], []
    for v in range(1, n):  # random spanning tree: attach each node below itself
        u = int(rng.integers(0, v))
        eu.append(u)
        ev.append(v)
        seen.add((u, v))
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        eu.append(key[0])
        ev.append(key[1])
    m = len(eu)
    mag = rng.uniform(0.5, 2.0, size=m) if weighted else np.ones(m)
    sgn = np.where(rng.random(m) < neg_fraction, -1.0, 1.0)
    return SignedGraph(labels, eu, ev, mag * sgn)


def generate_scaled(
    n: int,
    avg_degree: float,
    pairs: int = 8,
    band_size: int = 20,
    eta: float = 0.05,
    rng_seed: int = 0,
) -> tuple[SignedGraph, GroundTruth]:
    """Large sparse instance for timing: planted pairs plus random filler.

    The planted pairs follow the same within/cross sign rule as ``generate``;
    the remaining edge budget (to reach ``avg_degree``) is spent on uniform
    random pairs with balanced signs. Restricted to the largest component.
    """
    if n < 2 * pairs * band_size + 2:
        raise SynthError("n too small for the requested planted structure")
    if avg_degree <= 0:
        raise SynthError("avg_degree must be positive")
    rng = np.random.default_rng(rng_seed)
    labels = _labels(n)
    m = band_size

    planted = 2 * pairs * m
    iu, iv = np.triu_indices(planted, k=1)
    pair_id = (np.arange(planted) // (2 * m)).astype(np.int64)
    band_id = (np.arange(planted) // m % 2).astype(np.int64)
    same_pair = pair_id[iu] == pair_id[iv]
    sign = _signs(rng.random(len(iu)), same_pair, band_id[iu] == band_id[iv], eta)
    keep = same_pair & (sign != 0)
    eu = iu[keep]
    ev = iv[keep]
    ew = sign[keep].astype(np.float64)

    target_edges = int(round(n * avg_degree / 2.0))
    budget = max(0, target_edges - len(eu))
    if budget:
        # Oversample, canonicalize, and drop duplicates/self-pairs/planted
        # collisions; order within np.unique is deterministic.
        cand = rng.integers(0, n, size=(int(budget * 1.15) + 16, 2))
        cand = cand[cand[:, 0] != cand[:, 1]]
        lo_i = np.minimum(cand[:, 0], cand[:, 1]).astype(np.int64)
        hi_i = np.maximum(cand[:, 0], cand[:, 1]).astype(np.int64)
        key = lo_i * n + hi_i
        in_planted = (lo_i < planted) & (hi_i < planted)
        key = key[~in_planted]
        key = np.unique(key)[:budget]
        bu = key // n
        bv = key % n
        bsign = np.where(rng.random(len(key)) < 0.5, 1.0, -1.0)
        eu = np.concatenate([eu, bu])
        ev = np.concatenate([ev, bv])
        ew = np.concatenate([ew, bsign])

    return _with_truth(SignedGraph(labels, eu, ev, ew), labels, pairs, m, ())
