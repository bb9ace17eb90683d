"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line (visible with ``pytest -s``)."""

import hashlib
import time

import numpy as np

from signedpolar import (
    build_graph,
    build_sweep_table,
    community,
    fast_sweep,
    generate_scaled,
    query,
    sample_seed_pairs,
    seed_vector,
    smallest_eigenpair,
    solve_seeded,
)
from signedpolar.cli import main
from signedpolar.harness import ExperimentConfig, run_experiment
from signedpolar.oracle import (
    grid_search_minimum,
    indicator_vector,
    naive_sweep,
    rayleigh_quotient,
    verify_approximation,
    verify_relaxation,
)
from signedpolar.synth import SynthParams, reference_average_degree
from conftest import make_random_graph


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _scratch_threshold_beta(g, x, t):
    """Independent per-threshold recount used as the sweep oracle."""
    e = g.adjacency.tocoo()
    xu, xv, w = x[e.row], x[e.col], e.data
    hi_u, hi_v = xu >= t, xv >= t
    lo_u, lo_v = xu <= -t, xv <= -t
    in_u, in_v = hi_u | lo_u, hi_v | lo_v
    pos = w > 0
    num = 2.0 * float(w[pos & ((hi_u & lo_v) | (lo_u & hi_v))].sum())
    num += float(-w[~pos & ((hi_u & hi_v) | (lo_u & lo_v))].sum())
    num += float(np.abs(w)[in_u != in_v].sum())
    return num / float(g.degrees[(x >= t) | (x <= -t)].sum())


def test_criterion_1_sweep_oracle_equivalence():
    rng = np.random.default_rng(101)
    fast_sweep(build_graph([("a", "b", 1.0), ("b", "c", -1.0)]),
               np.array([1.0, 0.5, -0.5]))  # warmup, excluded from timing
    cases = []
    for trial in range(50):
        n = int(rng.integers(20, 301))
        g = make_random_graph(n, int(rng.integers(n, 4 * n)),
                              seed=trial, weighted=trial % 2 == 0)
        xs = [rng.standard_normal(n) for _ in range(5)]
        for x in xs[2:4]:
            x[rng.random(n) < 0.1] = 0.0  # exercise excluded zero entries
        cases.append((g, xs))

    t0 = time.perf_counter()
    worst = 0.0
    for g, xs in cases:
        for x in xs:
            table = build_sweep_table(g, x)
            fast = fast_sweep(g, x)
            ref = naive_sweep(g, x)
            assert fast.c1 == ref.c1 and fast.c2 == ref.c2
            assert abs(fast.beta - ref.beta) <= 1e-12 * max(1.0, abs(ref.beta))
            positions = np.flatnonzero(table.threshold_end)
            for i in positions:
                t = table.abs_values[i - 1]
                expected = _scratch_threshold_beta(g, x, t)
                err = abs(table.beta_prefix[i] - expected) / max(1.0, abs(expected))
                worst = max(worst, err)
            assert table.edge_visits == g.edge_count
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(1, "sweep oracle equivalence", ok,
            f"(max prefix error {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_quadratic_form_identities():
    rng = np.random.default_rng(202)
    violations = 0
    checked = 0
    worst = 0.0
    while checked < 1000:
        g = make_random_graph(int(rng.integers(5, 60)),
                              int(rng.integers(5, 150)),
                              seed=checked, weighted=checked % 2 == 0)
        for _ in range(25):
            side = rng.integers(-1, 2, size=g.node_count)
            c1 = np.flatnonzero(side == 1)
            c2 = np.flatnonzero(side == -1)
            if len(c1) + len(c2) == 0:
                continue
            x = indicator_vector(g, c1, c2)
            r = rayleigh_quotient(g, x)
            cm = community(g, c1, c2)
            closed = (
                4 * cm.counts.pos_across + 4 * cm.counts.neg_in_1
                + 4 * cm.counts.neg_in_2 + cm.counts.boundary
            ) / cm.volume
            worst = max(worst, abs(r - closed) / max(1.0, closed))
            if not (cm.beta <= r + 1e-12 and r <= 4 * cm.beta + 1e-12):
                violations += 1
            checked += 1
            if checked >= 1000:
                break
    ok = worst <= 1e-12 and violations == 0
    _report(2, "quadratic form identities", ok,
            f"({checked} indicators, max identity error {worst:.2e}, "
            f"{violations} sandwich violations)")


def test_criterion_3_solution_family_optimality():
    rng = np.random.default_rng(303)
    worst_ratio = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 9))
        g = make_random_graph(n, int(rng.integers(n, 3 * n)), seed=500 + trial,
                              weighted=trial % 2 == 0)
        s1, s2 = {0}, {1}
        s = seed_vector(g, s1, s2)
        for kappa in (0.3, 0.6, 0.9):
            sol = solve_seeded(g, s, kappa=kappa, eps=1e-5, cg_tol=1e-11)
            best_obj, _ = grid_search_minimum(g, s1, s2, kappa=kappa)
            # absolute floor covers balanced instances where both sides are
            # numerically zero and a pure ratio would be float dust
            excess = sol.objective - best_obj * (1 + 1e-3)
            assert excess <= 1e-12, f"trial {trial} kappa {kappa}: {excess}"
            if best_obj > 1e-9:
                worst_ratio = max(worst_ratio, sol.objective / best_obj)
    ok = worst_ratio <= 1 + 1e-3
    _report(3, "solution family optimality", ok,
            f"(worst objective ratio {worst_ratio:.6f})")


def test_criterion_4_provable_bound_suite():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    failures = []
    for trial in range(30):
        n = int(rng.integers(8, 13))
        g = make_random_graph(n, int(rng.integers(n, 3 * n)), seed=700 + trial,
                              weighted=trial % 3 == 0)
        k = float(rng.choice([2.0, 3.0, 4.0]))
        seeds1 = {int(rng.integers(n))}
        seeds2 = {int((max(seeds1) + 1) % n)}
        rel = verify_relaxation(g, seeds1, seeds2, k)
        app = verify_approximation(g, seeds1, seeds2, k)
        if rel.lambda_value > 4 * rel.h_value + 1e-6:
            failures.append((trial, "relaxation", rel))
        if app.beta_out > app.sweep_bound + 1e-9:
            failures.append((trial, "sweep", app))
        if app.beta_out > app.cheeger_bound + 1e-6:
            failures.append((trial, "cheeger", app))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(4, "provable bound suite", ok,
            f"(30 instances, {elapsed:.1f}s, {len(failures)} violations)")


def _balanced_graph(n, extra, seed):
    """Random connected graph made perfectly balanced by a side gauge."""
    base = make_random_graph(n, extra, seed=seed, weighted=seed % 2 == 0)
    side = np.where(np.random.default_rng(seed).random(n) < 0.5, 1.0, -1.0)
    edges = []
    e = base.adjacency.tocoo()
    for u, v, w in zip(e.row.tolist(), e.col.tolist(), e.data.tolist()):
        sign = 1.0 if side[u] == side[v] else -1.0
        edges.append((str(u), str(v), sign * abs(w)))
    return build_graph(edges), side


def test_criterion_5_balanced_graph_sanity():
    worst_lambda = 0.0
    worst_beta = 0.0
    for seed in range(10):
        n = 10 + 15 * seed
        g, side = _balanced_graph(n, 3 * n, seed)
        eig = smallest_eigenpair(g)
        worst_lambda = max(worst_lambda, abs(eig.lambda1))
        s1 = set(map(int, np.flatnonzero(side > 0)[:2]))
        s2 = set(map(int, np.flatnonzero(side < 0)[:2]))
        sol = solve_seeded(g, seed_vector(g, s1, s2), kappa=0.0)
        comm = fast_sweep(g, sol.x)
        worst_beta = max(worst_beta, comm.beta)
    ok = worst_lambda <= 1e-8 and worst_beta <= 1e-12
    _report(5, "balanced graph sanity", ok,
            f"(max lambda1 {worst_lambda:.2e}, max beta {worst_beta:.2e})")


def test_criterion_6_synthetic_recovery_ordering():
    config = ExperimentConfig(
        etas=(0.0, 0.01, 0.3),
        seed_sizes=(2,),
        kappas=(0.9,),
        pairs=8,
        band_size=20,
        graphs_per_config=10,
        queries_per_graph=10,
        eps=1e-3,
        rng_seed=2024,
    )
    rows = {r["eta"]: r for r in run_experiment(config)}
    ap0 = rows[0.0]["mean_ap"]
    ap_low = rows[0.01]["mean_ap"]
    ap_high = rows[0.3]["mean_ap"]
    ok = ap0 == 1.0 and ap_low > ap_high
    _report(6, "synthetic recovery ordering", ok,
            f"(AP: eta=0 -> {ap0:.3f}, eta=0.01 -> {ap_low:.3f}, "
            f"eta=0.3 -> {ap_high:.3f})")


def test_criterion_7_scale_smoke():
    avg_degree = reference_average_degree(
        SynthParams(pairs=8, band_size=20, eta=0.05)
    )
    g, _ = generate_scaled(100_000, avg_degree, eta=0.05, rng_seed=11)
    pair = sample_seed_pairs(g, t=0.0, count=1, rng_seed=11)[0]
    doc = query(g, [pair[0]], [pair[1]], kappa=0.9)
    solve_ms = doc["timings"]["solve_ms"]
    round_ms = doc["timings"]["round_ms"]
    total_s = (solve_ms + round_ms) / 1e3

    g2, _ = generate_scaled(200_000, avg_degree, eta=0.05, rng_seed=11)
    x1 = np.random.default_rng(0).standard_normal(g.node_count)
    x2 = np.random.default_rng(0).standard_normal(g2.node_count)
    fast_sweep(g, x1)  # warm path before timing
    best1 = best2 = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        fast_sweep(g, x1)
        best1 = min(best1, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fast_sweep(g2, x2)
        best2 = min(best2, time.perf_counter() - t0)
    scaling = best2 / best1

    ok = round_ms < solve_ms and total_s < 120.0 and scaling < 2.5
    _report(7, "scale smoke test", ok,
            f"(solve {solve_ms/1e3:.1f}s, round {round_ms/1e3:.2f}s, "
            f"total {total_s:.1f}s, round scaling x{scaling:.2f})")


def test_criterion_8_experiment_determinism(tmp_path):
    args = ["experiment", "--eta", "0.05", "--pairs", "2", "--band-size", "5",
            "--graphs", "2", "--queries", "2", "--seed", "31"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    _report(8, "experiment determinism", ok,
            f"({len(out1.read_bytes())} identical bytes)")


def test_criterion_8_reference_campaign_bytes(tmp_path):
    # Recorded with numpy 2.4.6 and scipy 1.17.1; a change that moves these
    # bytes moves a ratio, a volume or a precision of the reference campaign.
    out = tmp_path / "ref.csv"
    assert main(["experiment", "--eta", "0,0.01,0.05", "--kappas", "0.5,0.9",
                 "--graphs", "4", "--queries", "5", "--seed", "7", "--out", str(out)]) == 0
    digest = hashlib.md5(out.read_bytes()).hexdigest()
    _report(8, "reference campaign bytes", digest == "d54290e16daf540b4dce8c0963a8c9af",
            f"(md5 {digest})")
