"""Query and campaign orchestration on top of the solver and sweep.

A query runs seed vector -> continuous solve -> threshold rounding and
returns a JSON-ready document. Campaigns sweep a parameter grid over
synthetic graphs with planted ground truth; given a fixed master seed every
generated graph, seed choice, and output row is reproducible.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .graph import Community, GraphError, SignedGraph, _end_sums, community, seed_vector
from .metrics import metric_report
from .spectral import solve_seeded
from .sweep import fast_sweep
from .synth import GroundTruth, SynthParams, generate

logger = logging.getLogger(__name__)

DEFAULT_KAPPA = 0.9
DEFAULT_EPS = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    etas: tuple[float, ...] = (0.05,)
    seed_sizes: tuple[int, ...] = (2,)
    kappas: tuple[float, ...] = (DEFAULT_KAPPA,)
    pairs: int = 8
    band_size: int = 20
    outliers: int = 0
    graphs_per_config: int = 10
    queries_per_graph: int = 10
    eps: float = DEFAULT_EPS
    rng_seed: int = 0
    include_timings: bool = False


def query(
    g: SignedGraph,
    s1_labels,
    s2_labels,
    kappa: float = DEFAULT_KAPPA,
    eps: float = DEFAULT_EPS,
    emit_vector: bool = False,
    truth: Community | None = None,
) -> dict:
    """Solve-then-round for one seed pair; returns a result document.

    The document carries the two bands (as labels), the ratio, solver
    diagnostics (including ``search_steps``, the evaluations of the secular
    correlation in the shift's root find, ``lanczos_steps``, the Lanczos
    matvecs behind it (0 on the dense path), and ``cg_iterations``, those
    of the one certifying CG solve, which starts at the spectral or Krylov
    solution and so takes 1), quality
    metrics, and the solve/round wall times in ms. ``eps`` bounds
    |c - kappa| in that solve's certificate.
    """
    s1 = [g.index_of(lab) for lab in s1_labels]
    s2 = [g.index_of(lab) for lab in s2_labels]
    s = seed_vector(g, s1, s2)

    t0 = time.perf_counter()
    sol = solve_seeded(g, s, kappa=kappa, eps=eps)  # CG to spectral.DEFAULT_CG_TOL
    t1 = time.perf_counter()
    comm = fast_sweep(g, sol.x)
    t2 = time.perf_counter()

    c1_labels, c2_labels = comm.labels(g)
    report = metric_report(g, comm, truth=truth)
    doc = {
        "c1": sorted(map(str, c1_labels)),
        "c2": sorted(map(str, c2_labels)),
        "beta": comm.beta,
        "alpha": sol.alpha,
        "correlation": sol.correlation,
        "lambda1": sol.lambda1,
        "kappa": kappa,
        "objective": sol.objective,
        "constraint_active": sol.constraint_active,
        "search_steps": sol.search_steps,
        "lanczos_steps": sol.lanczos_steps,
        "cg_iterations": sol.cg_iterations,
        "warnings": list(sol.warnings),
        "metrics": {
            "beta": report.beta,
            "ap": report.ap,
            "ham": report.ham,
            "cohesion": report.cohesion,
            "opposition": report.opposition,
            "polarity": report.polarity,
            "sizes": list(report.sizes),
            "volume": report.volume,
        },
        "timings": {
            "solve_ms": (t1 - t0) * 1e3,
            "round_ms": (t2 - t1) * 1e3,
        },
    }
    if emit_vector:
        doc["x"] = sol.x.tolist()
    return doc


def sample_seed_pairs(
    g: SignedGraph, t: float, count: int, rng_seed: int = 0
) -> list[tuple]:
    """Sample seed pairs from negative edges with positively-connected ends.

    A negative edge (u, v) qualifies when both endpoints carry positive
    degree at least ``t``; ``count`` pairs are drawn uniformly without
    replacement. Fewer qualifying edges than requested returns them all.
    """
    if t < 0:
        raise ValueError("threshold t must be nonnegative")
    edges = g.adjacency.tocoo()
    u, v, w = edges.row, edges.col, edges.data
    pos = _end_sums(u, v, w, g.node_count, lambda x: np.maximum(x, 0.0))  # positive degrees
    ok = (w < 0) & (pos[u] >= t) & (pos[v] >= t)
    idx = np.flatnonzero(ok)
    if len(idx) == 0:
        raise GraphError(
            f"no negative edge has both endpoints with positive degree >= {t}; "
            "lower the threshold"
        )
    if count >= len(idx):
        if count > len(idx):
            logger.warning(
                "requested %d seed pairs but only %d qualify; returning all",
                count,
                len(idx),
            )
        chosen = idx
    else:
        rng = np.random.default_rng(rng_seed)
        chosen = rng.choice(idx, size=count, replace=False)
    return [(g.labels[u[i]], g.labels[v[i]]) for i in chosen]


def _pick_truth_pair(g, truth: GroundTruth, size: int, rng):
    """Choose a planted pair with two usable bands and sample seeds in it."""
    usable = [
        (a, b)
        for a, b in truth.pairs
        if len(a) >= max(1, size // 2) and len(b) >= max(1, size - size // 2)
    ]
    if not usable:
        raise GraphError("no planted pair has enough surviving nodes to seed")
    a, b = usable[rng.integers(len(usable))]
    n1 = size // 2 if size >= 2 else 1
    n2 = size - n1
    s1 = rng.choice(sorted(a), size=max(1, n1), replace=False)
    s2 = rng.choice(sorted(b), size=max(1, n2), replace=False) if n2 else []
    truth_comm = community(
        g,
        [g.index_of(lab) for lab in a],
        [g.index_of(lab) for lab in b],
    )
    return list(s1), list(s2), truth_comm


EXPERIMENT_COLUMNS = (
    "eta",
    "seed_size",
    "kappa",
    "graphs",
    "queries",
    "failures",
    "mean_ap",
    "std_ap",
    "mean_beta_ratio",
    "std_beta_ratio",
    "mean_volume",
    "std_volume",
)
TIMING_COLUMNS = ("mean_solve_ms", "std_solve_ms", "mean_round_ms", "std_round_ms")


def _beta_ratio(found: float, planted: float) -> float:
    if planted > 0:
        return found / planted
    return 1.0 if found <= 1e-12 else float("inf")


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run the full parameter grid and return one aggregate row per cell.

    Each cell generates ``graphs_per_config`` graphs and runs
    ``queries_per_graph`` seeded queries per graph, scoring precision
    against the sampled planted pair and the ratio against the planted
    ratio. Failures inside a cell are counted and the campaign continues.
    All randomness descends from ``config.rng_seed``.
    """
    master = np.random.SeedSequence(config.rng_seed)
    rows = []
    cells = [
        (eta, size, kappa)
        for eta in config.etas
        for size in config.seed_sizes
        for kappa in config.kappas
    ]
    cell_seeds = master.spawn(len(cells))
    for (eta, size, kappa), cell_seed in zip(cells, cell_seeds):
        aps, ratios, volumes, solve_ms, round_ms = [], [], [], [], []
        failures = 0
        graph_seeds = cell_seed.spawn(config.graphs_per_config)
        for gseed in graph_seeds:
            gen_seed, query_seed = gseed.spawn(2)
            try:
                g, truth = generate(
                    SynthParams(
                        pairs=config.pairs,
                        band_size=config.band_size,
                        outliers=config.outliers,
                        eta=eta,
                        rng_seed=int(gen_seed.generate_state(1)[0]),
                    )
                )
            except Exception:
                logger.exception("graph generation failed; cell continues")
                failures += config.queries_per_graph
                continue
            qrng = np.random.default_rng(query_seed)
            for _ in range(config.queries_per_graph):
                try:
                    s1, s2, truth_comm = _pick_truth_pair(g, truth, size, qrng)
                    doc = query(
                        g,
                        s1,
                        s2,
                        kappa=kappa,
                        eps=config.eps,
                        truth=truth_comm,
                    )
                except Exception:
                    logger.exception("query failed; cell continues")
                    failures += 1
                    continue
                aps.append(doc["metrics"]["ap"])
                ratios.append(_beta_ratio(doc["beta"], truth_comm.beta))
                volumes.append(doc["metrics"]["volume"])
                solve_ms.append(doc["timings"]["solve_ms"])
                round_ms.append(doc["timings"]["round_ms"])

        def agg(vals):
            if not vals:
                return float("nan"), float("nan")
            arr = np.asarray(vals, dtype=np.float64)
            return float(arr.mean()), float(arr.std())

        row = {
            "eta": eta,
            "seed_size": size,
            "kappa": kappa,
            "graphs": config.graphs_per_config,
            "queries": len(aps),
            "failures": failures,
        }
        for name, vals in (("ap", aps), ("beta_ratio", ratios), ("volume", volumes)):
            mean, std = agg(vals)
            row[f"mean_{name}"] = mean
            row[f"std_{name}"] = std
        if config.include_timings:
            for name, vals in (("solve_ms", solve_ms), ("round_ms", round_ms)):
                mean, std = agg(vals)
                row[f"mean_{name}"] = mean
                row[f"std_{name}"] = std
        rows.append(row)
    return rows


def experiment_csv(rows) -> str:
    """Render campaign rows with a fixed column order and float format, so
    identical inputs produce identical bytes. The timing columns are
    appended when the rows carry them (``include_timings``)."""
    timed = any(TIMING_COLUMNS[0] in row for row in rows)
    columns = EXPERIMENT_COLUMNS + (TIMING_COLUMNS if timed else ())

    def fmt(v):
        if isinstance(v, float):
            return f"{v:.12g}"
        return str(v)

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"

