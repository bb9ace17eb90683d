import numpy as np
import pytest

from signedpolar import build_graph, random_signed_graph
from signedpolar.oracle import naive_degrees


@pytest.fixture
def t3():
    """Signed triangle: a-b and a-c positive, b-c negative; deg 2 everywhere."""
    return build_graph([("a", "b", 1.0), ("a", "c", 1.0), ("b", "c", -1.0)])


@pytest.fixture
def balanced_path():
    """Perfectly balanced 3-path: split ({a, b}, {c}) has no contradicting edge."""
    return build_graph([("a", "b", 1.0), ("b", "c", -1.0)])


@pytest.fixture
def single_edge():
    return build_graph([("a", "b", 1.0)])


def dense_normalized_laplacian(g):
    """Independent dense construction of I - D^{-1/2} A D^{-1/2}."""
    rootd = np.sqrt(g.degrees)
    a = g.adjacency.toarray()
    a += a.T  # adjacency holds the upper triangle
    return np.eye(g.node_count) - (a / rootd[:, None]) / rootd[None, :]


def scratch_beta(g, c1, c2):
    """From-scratch ratio via plain python loops (independent oracle)."""
    c1, c2 = set(c1), set(c2)
    union = c1 | c2
    num = 0.0
    edges = g.adjacency.tocoo()
    for u, v, w in zip(edges.row.tolist(), edges.col.tolist(), edges.data.tolist()):
        if w > 0 and ((u in c1 and v in c2) or (u in c2 and v in c1)):
            num += 2 * w
        if w < 0 and ((u in c1 and v in c1) or (u in c2 and v in c2)):
            num += -w
        if (u in union) != (v in union):
            num += abs(w)
    vol = sum(g.degrees[i] for i in union)
    return num / vol


def make_random_graph(n, extra, seed, weighted=False, neg_fraction=0.5):
    return random_signed_graph(
        n, extra_edges=extra, rng_seed=seed, weighted=weighted,
        neg_fraction=neg_fraction,
    )


def assert_same_graph(g, ref):
    """Same labels, edges, degrees and volume, bit for bit."""
    assert g.labels == ref.labels
    for name in ("indptr", "indices", "data"):
        a, b = getattr(g.adjacency, name), getattr(ref.adjacency, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    deg, _ = naive_degrees(ref)
    assert np.array_equal(g.degrees, deg)
    assert g.total_volume == float(deg.sum())
