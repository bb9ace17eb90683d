"""The benchmark's input generator and its answer checks."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import graphgen  # noqa: E402

SMALL = graphgen.GenSpec(nodes=3000, avg_degree=20.0, pairs=3, band_size=20, bridges=2)


def _files(tmp_path, spec, seed, tag):
    edges, truth = tmp_path / f"{tag}.edges", tmp_path / f"{tag}.json"
    graphgen.write_instance(spec, seed, edges, truth)
    return edges.read_bytes(), truth.read_bytes()


def test_same_seed_same_bytes(tmp_path):
    assert _files(tmp_path, SMALL, 7, "a") == _files(tmp_path, SMALL, 7, "b")
    assert _files(tmp_path, SMALL, 8, "c")[0] != _files(tmp_path, SMALL, 7, "a")[0]


def test_edge_budget_and_sparse_cuts():
    inst = graphgen.generate(SMALL, 3)
    info = graphgen.self_check(inst)
    assert info["edges"] == round(SMALL.nodes * SMALL.avg_degree / 2)
    assert len(info["planted_beta"]) == SMALL.pairs
    assert max(info["planted_beta"]) <= graphgen.SPARSE_CUT_SHARE * info["background_beta"]
    # Planted nodes reach the background only through their bridges.
    planted = inst.planted
    inside = (inst.eu < planted) & (inst.ev < planted)
    crossing = (inst.eu < planted) != (inst.ev < planted)
    assert crossing.sum() == planted * SMALL.bridges
    pair_u = inst.eu[inside] // (2 * SMALL.band_size)
    pair_v = inst.ev[inside] // (2 * SMALL.band_size)
    assert np.array_equal(pair_u, pair_v)


def test_self_check_rejects_a_dense_cut():
    spec = graphgen.GenSpec(nodes=3000, avg_degree=20.0, pairs=2, band_size=20, bridges=40)
    with pytest.raises(ValueError, match="not a sparse cut"):
        graphgen.self_check(graphgen.generate(spec, 1))


def test_beta_of_matches_hand_count():
    # Triangle 0-1 (+), 0-2 (+), 1-2 (-) plus a pendant 2-3 (+).
    eu, ev = np.array([0, 0, 1, 2]), np.array([1, 2, 2, 3])
    ew = np.array([1, 1, -1, 1], dtype=np.int8)
    deg = np.array([2.0, 2.0, 3.0, 1.0])
    side = np.array([1, 1, -1, 0], dtype=np.int8)
    # 0-2 positive across (2), 1-2 negative across (0), boundary 2-3 (1).
    assert graphgen.beta_of(eu, ev, ew, deg, side) == pytest.approx(3.0 / 7.0)


# ---------------------------------------------------------------- checks

A = [str(i) for i in range(10)]
B = [str(i) for i in range(10, 20)]


def _moved_one(a, b):
    return a[1:], b + a[:1]


def test_local_check_accepts_the_planted_pair_either_way_round():
    assert checks.check_local({"c1": B, "c2": A, "beta": 0.05}, A, B, 0.05) == []


def test_local_check_rejects_one_node_moved_across():
    c1, c2 = _moved_one(A, B)
    problems = checks.check_local({"c1": c1, "c2": c2, "beta": 0.05}, A, B, 0.05)
    assert len(problems) == 1 and "not the planted pair" in problems[0]


def test_local_check_rejects_a_wrong_beta():
    problems = checks.check_local({"c1": A, "c2": B, "beta": 0.0501}, A, B, 0.05)
    assert len(problems) == 1 and "planted beta" in problems[0]


def test_average_precision():
    assert checks.average_precision(B, A, A, B) == 1.0
    c1, c2 = _moved_one(A, B)
    assert checks.average_precision(c1, c2, A, B) == pytest.approx(0.5 * (1 + 10 / 11))


def _row(eta, failures=0, ap=1.0):
    return {"eta": eta, "failures": failures, "mean_ap": ap}


def test_campaign_check():
    good = [_row(0.0), _row(0.05, ap=0.4)]
    assert checks.check_campaign(good, ["x", "x"]) == []
    assert checks.check_campaign([_row(0.0, failures=1)], ["x", "x"])
    assert checks.check_campaign([_row(0.0, ap=0.99)], ["x", "x"])
    assert checks.check_campaign(good, ["x", "y"])
    assert checks.check_campaign(good, ["x"])
