"""Evaluation measures for recovered communities: precision against ground
truth, the cohesion/opposition harmonic mean, and the size-penalized
polarity score. Edge terms are sums of absolute weights on weighted graphs,
read from the counts a :class:`Community` carries, so scoring takes no
further edge pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Community, SignedGraph
from .graph import edge_counts  # noqa: F401 - perfbench/spans.py hooks this name


class MetricError(ValueError):
    """Raised when a metric is undefined for the given bands."""


@dataclass(frozen=True)
class MetricReport:
    beta: float
    ap: float | None
    ham: float
    cohesion: float
    opposition: float
    polarity: float
    sizes: tuple[int, int]
    volume: float


def average_precision(c: Community, truth: Community) -> float:
    """Mean per-band precision against the ground-truth pair.

    Band labels are arbitrary, so the better of the two band-to-band
    assignments is returned; an empty band contributes precision zero.
    """
    if not c.c1 and not c.c2:
        raise MetricError("both bands are empty")

    def one_sided(a, b, ta, tb):
        pa = len(set(a) & set(ta)) / len(a) if a else 0.0
        pb = len(set(b) & set(tb)) / len(b) if b else 0.0
        return 0.5 * (pa + pb)

    return max(
        one_sided(c.c1, c.c2, truth.c1, truth.c2),
        one_sided(c.c1, c.c2, truth.c2, truth.c1),
    )


def ham(g: SignedGraph, c: Community) -> tuple[float, float, float]:
    """Harmonic mean of cohesion and opposition, with its two factors.

    Cohesion averages the positive internal densities of the two bands;
    opposition is the negative cross density. A band of size < 2 has no
    internal pairs and contributes density zero by convention.
    """
    if not c.c1 or not c.c2:
        raise MetricError("ham requires two nonempty bands")
    counts = c.counts
    n1, n2 = len(c.c1), len(c.c2)
    d1 = 2.0 * counts.pos_in_1 / (n1 * (n1 - 1)) if n1 >= 2 else 0.0
    d2 = 2.0 * counts.pos_in_2 / (n2 * (n2 - 1)) if n2 >= 2 else 0.0
    cohesion = 0.5 * (d1 + d2)
    opposition = counts.neg_across / (n1 * n2)
    if cohesion > 0 and opposition > 0:
        h = 2.0 * cohesion * opposition / (cohesion + opposition)
    else:
        h = 0.0
    return h, cohesion, opposition


def polarity(g: SignedGraph, c: Community) -> float:
    """Structure-agreeing edge weight per node of the community.

    Counts positive weight inside the bands plus twice the negative weight
    across them, divided by the number of community nodes, so bloated
    communities score lower.
    """
    size = len(c.c1) + len(c.c2)
    if size == 0:
        raise MetricError("empty community")
    counts = c.counts
    return (counts.pos_in_1 + counts.pos_in_2 + 2.0 * counts.neg_across) / size


def metric_report(
    g: SignedGraph, c: Community, truth: Community | None = None
) -> MetricReport:
    """Bundle all quality measures of a community into one record."""
    h, cohesion, opposition = ham(g, c) if (c.c1 and c.c2) else (0.0, 0.0, 0.0)
    return MetricReport(
        beta=c.beta,
        ap=average_precision(c, truth) if truth is not None else None,
        ham=h,
        cohesion=cohesion,
        opposition=opposition,
        polarity=polarity(g, c),
        sizes=(len(c.c1), len(c.c2)),
        volume=c.volume,
    )
