"""The benchmark's workloads: a 100k-node query workload read from an edge
file, and a small-graph campaign.

Load model: one process, one client, closed loop (the next query is sent
only after the previous one returns). The package is driven only through
``io.ingest``, ``harness.query``, ``harness.run_experiment`` and
``harness.experiment_csv``, always looked up on their modules so the tracer's
hooks see every call.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from signedpolar import harness, io

import checks
import envinfo
import spans

END_TO_END = {
    "setup_s": "s",
    "first_query_s": "s",
    "query_s_p50": "s",
    "queries_per_s": "1/s",
    "beta_mean": "ratio",
    "peak_rss_mb": "MB",
}

QUERY_LAYERS = ("harness", "spectral", "sweep", "graph", "metrics")

PER_LAYER = {
    "io.read_edge_list_s": "s",
    "io.edges_parsed": "count",
    "io.bytes_read": "B",
    "graph.build_graph_s": "s",
    "graph.largest_component_s": "s",
    "spectral.eigenpair_s": "s",
    "spectral.eigenpair_matvecs": "count",
    "spectral.eigen_residual": "ratio",
    "spectral.search_s": "s",
    "spectral.search_steps": "count",
    "spectral.cg_solves": "count",
    "spectral.cg_iterations": "count",
    "spectral.matvecs": "count",
    "spectral.matvec_ms": "ms",
    "spectral.useful_solve_frac": "ratio",
    "spectral.matvec_flops": "flop-computed",
    "spectral.matvec_bytes": "B-computed",
    "sweep.fast_sweep_s": "s",
    "sweep.table_s": "s",
    "sweep.edge_visits": "count-reported",
    "sweep.candidates": "count",
    "graph.community_s": "s",
    "graph.edge_counts_calls": "count",
    "graph.edge_counts_s": "s",
    "metrics.metric_report_s": "s",
    "harness.query_self_s": "s",
    "harness.output_nodes": "count",
    "harness.volume_ratio": "ratio",
    "spectral.correlation_gap": "ratio",
    "synth.generate_s": "s",
    "synth.build_graph_s": "s",
    "harness.query_ms_p50": "ms",
    "harness.query_ms_p99": "ms",
    **{f"{layer}.self_s": "s" for layer in QUERY_LAYERS},
    "trace.overhead_frac": "ratio",
}

# An untraced 100k run has this many rounds, each of which ingests the edge
# file afresh, then sends the first query to the new graph and warm queries
# for its share of --seconds; spreading the samples over the run averages
# over the machine's slower and faster spells. setup_s and first_query_s are
# medians over the rounds.
SETUP_ROUNDS = 3
MIN_WARM_PER_ROUND = 2
CAMPAIGN_SETUP_ROUNDS = 7
# A traced query's span self times must add up to the wall time the
# benchmark measured around it, within this much.
SELF_TIME_SLACK_S = 2e-3
SELF_TIME_SLACK_FRAC = 0.01
MAX_PROBLEMS_SHOWN = 20


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def count(self, problems) -> bool:
        """Record one attempted query; returns whether it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failed and not self.problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(vals) -> float:
    return float(statistics.median(vals)) if vals else 0.0


# ---------------------------------------------------------------- local-100k

LOCAL = "local-100k"
LOCAL_KAPPA = 0.5
GENERATOR = Path(__file__).resolve().with_name("graphgen.py")
GENERATOR_TIMEOUT_S = 300


class LocalRun:
    """One local-100k run: generate the input (untimed), ingest, query,
    check."""

    def __init__(self, seed: int, workdir: Path):
        self.path = workdir / f"{LOCAL}-{seed}.edges"
        truth = workdir / f"{LOCAL}-{seed}.truth.json"
        # A child process writes the files, so the generator's memory does
        # not count in this process's peak_rss_mb.
        subprocess.run(
            [sys.executable, str(GENERATOR), "--seed", str(seed),
             "--edges", str(self.path), "--truth", str(truth)],
            check=True, timeout=GENERATOR_TIMEOUT_S,
        )
        self.truth = json.loads(truth.read_text(encoding="utf-8"))
        self.rng = np.random.default_rng([seed, 1])
        self.issued = 0
        self.aps: list[float] = []
        self.beta_ratios: list[float] = []
        self.betas: list[float] = []
        self.resident: list = []

    def ingest(self):
        envinfo.warm_page_cache(self.path)
        self.resident.append(envinfo.resident_fraction(self.path))
        t0 = perf_counter()
        g = io.ingest(self.path)
        return g, perf_counter() - t0

    def next_query(self):
        """Seed labels of the next query and the planted pair it targets:
        one random node on each side of the pairs in turn."""
        p = self.issued % len(self.truth["pairs"])
        self.issued += 1
        a, b = self.truth["pairs"][p]
        return (a[self.rng.integers(len(a))],), (b[self.rng.integers(len(b))],), p

    def check(self, doc, p) -> list[str]:
        a, b = self.truth["pairs"][p]
        planted = self.truth["planted_beta"][p]
        self.aps.append(checks.average_precision(doc["c1"], doc["c2"], a, b))
        self.beta_ratios.append(doc["beta"] / planted)
        return checks.check_local(doc, a, b, planted)

    def run_query(self, g, q, out: Outcome):
        """Send one query, check its answer and count it in ``out``;
        returns (document or None, seconds, passed)."""
        s1, s2, p = q
        t0 = perf_counter()
        try:
            doc = harness.query(g, s1, s2, kappa=LOCAL_KAPPA)
        except Exception as exc:  # a failed query is counted, the run goes on
            dt = perf_counter() - t0
            out.count([f"query raised {type(exc).__name__}: {exc}"])
            return None, dt, False
        dt = perf_counter() - t0
        self.betas.append(doc["beta"])
        return doc, dt, out.count(self.check(doc, p))


def run_local(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    run = LocalRun(seed, workdir)
    tracer = spans.Tracer() if trace else None
    hooks = tracer.installed if trace else nullcontext
    rounds = 1 if trace else SETUP_ROUNDS

    setup, first, first_qids = [], [], []
    warm, warm_ok = [], 0
    traced_lat, warm_qids, walls = [], [], {}
    g = None
    for _ in range(rounds):
        g = None  # drop the previous graph before building the next
        gc.collect()
        with hooks():
            g, dt = run.ingest()
        setup.append(dt)
        with hooks():
            _, dt, _ = run.run_query(g, run.next_query(), out)
        first.append(dt)
        if trace:
            first_qids.append(tracer.last_qid)

        spent, count = dt, 0
        while count < MIN_WARM_PER_ROUND or spent < seconds / rounds:
            q = run.next_query()
            doc, dt, ok = run.run_query(g, q, out)
            warm.append(dt)
            warm_ok += ok
            spent += dt
            count += 1
            if not trace:
                continue
            # Send the same query again with tracing on.
            with tracer.installed():
                doc_t, dt_t, _ = run.run_query(g, q, out)
            spent += dt_t
            traced_lat.append(dt_t)
            warm_qids.append(tracer.last_qid)
            walls[tracer.last_qid] = dt_t
            if doc is not None and doc_t is not None and (
                    (doc["c1"], doc["c2"], doc["beta"])
                    != (doc_t["c1"], doc_t["c2"], doc_t["beta"])):
                out.problems.append("traced and untraced answers differ")

    out.report.update({
        "generator": {"edges": run.truth["edges"],
                      "background_beta": run.truth["background_beta"],
                      "planted_beta_max": max(run.truth["planted_beta"])},
        "edge_file_bytes": run.path.stat().st_size,
        "page_cache_resident_frac": run.resident,
        "samples": {"setup_s": len(setup), "first_query_s": len(first),
                    "query_s_p50": len(warm)},
        "kappa": LOCAL_KAPPA,
    })
    out.report["ap_mean"] = float(np.mean(run.aps))
    out.report["beta_ratio_mean"] = float(np.mean(run.beta_ratios))
    if trace:
        finish_trace(out, tracer, first_qids, warm_qids, walls, LOCAL,
                     _median(traced_lat) / _median(warm) - 1.0,
                     workdir.parent / f"spans-{LOCAL}-seed{seed}.jsonl")
    else:
        out.metrics = {
            "setup_s": _median(setup),
            "first_query_s": _median(first),
            "query_s_p50": _median(warm),
            "queries_per_s": warm_ok / sum(warm),
            "beta_mean": float(np.mean(run.betas)) if run.betas else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
    return out


# ------------------------------------------------------------ campaign


def campaign_config(seed: int):
    """96 graphs per campaign run: warm-query time depends on the graph
    (its noise edges set the CG work), and with a few graphs per ``eta`` the
    median moved by a fifth from one seed to the next."""
    return harness.ExperimentConfig(
        etas=(0.0, 0.01, 0.05),
        seed_sizes=(2,),
        kappas=(0.9,),
        pairs=8,
        band_size=20,
        graphs_per_config=32,
        queries_per_graph=5,
        rng_seed=seed,
    )


WARMUP_CONFIG = dict(etas=(0.0,), pairs=2, band_size=5, graphs_per_config=1,
                     queries_per_graph=1)

# Run in a fresh interpreter: time the package import plus one tiny
# campaign (one graph, one query).
SETUP_SNIPPET = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
from signedpolar import harness
harness.run_experiment(harness.ExperimentConfig(**{config}))
print(perf_counter() - t0)
"""


def measure_campaign_setup(src: Path) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET.format(config=WARMUP_CONFIG), str(src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def campaign_queries(spans_) -> list[tuple[spans.Span, bool, float]]:
    """``(query span, first on its graph, eta)`` for every top-level query
    that returned; the first query on a freshly generated graph pays its
    eigensolve."""
    out, fresh, eta = [], False, None
    for s in spans_:
        if s.parent is not None:
            continue
        if s.name == "synth.generate":
            fresh, eta = True, s.attrs.get("eta")
        elif s.name == spans.QUERY_SPAN:
            if "ap" in s.attrs:
                out.append((s, fresh, eta))
            fresh = False
    return out


def run_campaign(seed: int, seconds: float, trace: bool, workdir: Path, src: Path) -> Outcome:
    out = Outcome()
    setup = [] if trace else [measure_campaign_setup(src) for _ in range(CAMPAIGN_SETUP_ROUNDS)]
    harness.run_experiment(harness.ExperimentConfig(**WARMUP_CONFIG))

    cfg = campaign_config(seed)
    # Untraced runs are timed by the two clock hooks alone; traced runs by
    # every hook.
    clock = spans.Tracer(spans.CLOCK_HOOKS)
    tracer = spans.Tracer() if trace else None
    csvs, rows_all = [], []

    def one_run(t: spans.Tracer) -> tuple[float, int]:
        """One ``run_experiment`` call: its wall time and the number of
        its queries that returned and passed."""
        n0 = len(t.spans)
        passed = 0
        with t.installed():
            t0 = perf_counter()
            rows = harness.run_experiment(cfg)
            dt = perf_counter() - t0
        rows_all.extend(rows)
        csvs.append(harness.experiment_csv(rows))
        raised = sum(r["failures"] for r in rows)
        out.attempted += raised
        out.failed += raised
        for s, _, eta in campaign_queries(t.spans[n0:]):
            ap = s.attrs["ap"]
            passed += out.count(
                [f"eta=0 query with AP {ap}"] if eta == 0.0 and ap != 1.0 else [])
        return dt, passed

    walls, rates = [], []
    while len(walls) < 2 or sum(walls) < seconds:
        dt, passed = one_run(clock)
        walls.append(dt)
        rates.append(passed / dt)
    # One traced campaign gives hundreds of queries per layer median; more
    # would only grow the span file.
    traced_walls = [one_run(tracer)[0]] if trace else []
    out.problems += checks.check_campaign(rows_all, csvs)

    recs = campaign_queries(clock.spans)
    traced = campaign_queries(tracer.spans) if trace else []
    answers = [s.attrs for s, _, _ in recs + traced]
    out.report.update({
        "config": {k: getattr(cfg, k) for k in ("etas", "seed_sizes", "kappas", "pairs",
                                                  "band_size", "graphs_per_config",
                                                  "queries_per_graph")},
        "runs": len(walls) + len(traced_walls),
        "queries": len(answers),
        "samples": {"setup_s": len(setup), "first_query_s": sum(f for _, f, _ in recs),
                    "query_s_p50": sum(not f for _, f, _ in recs)},
        "ap_mean": float(np.mean([a["ap"] for a in answers])),
        "beta_ratio_mean": float(np.average(
            [r["mean_beta_ratio"] for r in rows_all], weights=[r["queries"] for r in rows_all])),
    })
    if trace:
        finish_trace(out, tracer, [s.qid for s, f, _ in traced if f],
                     [s.qid for s, f, _ in traced if not f],
                     {s.qid: s.dur for s, _, _ in traced}, "campaign-small",
                     _median(traced_walls) / _median(walls) - 1.0,
                     workdir.parent / f"spans-campaign-small-seed{seed}.jsonl")
    else:
        out.metrics = {
            "setup_s": _median(setup),
            "first_query_s": _median([s.dur for s, f, _ in recs if f]),
            "query_s_p50": _median([s.dur for s, f, _ in recs if not f]),
            "queries_per_s": _median(rates),
            "beta_mean": float(np.mean([a["beta"] for a in answers])),
            "peak_rss_mb": peak_rss_mb(),
        }
    return out


# ------------------------------------------------------------ tracing


def layer_metrics(tracer: spans.Tracer, first_qids, warm_qids) -> dict:
    """Per-layer metrics from the spans: set-up layers per call, the
    eigensolve per first query, everything else as the median over warm
    queries."""
    sp = tracer.spans
    selft = spans.self_times(sp)
    byq = spans.query_spans(sp)
    children = spans.children_of(sp)

    def durs(name, pool=sp):
        return [s.dur for s in pool if s.name == name]

    def attr(name, key, pool=sp):
        return [s.attrs[key] for s in pool if s.name == name]

    outside = [s for s in sp if s.qid is None]
    m = {
        "io.read_edge_list_s": _median(durs("io.read_edge_list", outside)),
        "io.edges_parsed": _median(attr("io.read_edge_list", "edges", outside)),
        "io.bytes_read": _median(attr("io.read_edge_list", "bytes", outside)),
        "graph.build_graph_s": _median(durs("graph.build_graph", outside)),
        "graph.largest_component_s": _median(durs("graph.largest_component", outside)),
        "synth.generate_s": _median(durs("synth.generate", outside)),
        "synth.build_graph_s": _median(durs("synth.build_graph", outside)),
    }

    eig_s, eig_mv, eig_res = [], [], []
    for q in first_qids:
        eigs = [s for s in byq.get(q, []) if s.name == "spectral.smallest_eigenpair"]
        eig_s.append(sum(s.dur for s in eigs))
        eig_mv.append(sum(1 for e in eigs for s in spans.below(children, e)
                          if s.name == "spectral.laplacian_apply"))
        eig_res += [s.attrs["residual"] for s in eigs]
    m["spectral.eigenpair_s"] = _median(eig_s)
    m["spectral.eigenpair_matvecs"] = _median(eig_mv)
    m["spectral.eigen_residual"] = _median(eig_res)

    per_query = []
    for q in warm_qids:
        qs = byq.get(q, [])

        def total(name, key=None):
            return sum(s.attrs[key] if key else s.dur for s in qs if s.name == name)

        def count(name):
            return sum(1 for s in qs if s.name == name)

        root = qs[0]
        solves = [s for s in qs if s.name == "spectral.solve_seeded"]
        cg_solves = count("spectral.solve_shifted")
        row = {
            "spectral.search_s": total("spectral.solve_seeded")
            - total("spectral.smallest_eigenpair"),
            "spectral.search_steps": total("spectral.solve_seeded", "search_steps"),
            "spectral.cg_solves": cg_solves,
            "spectral.cg_iterations": total("spectral.solve_shifted", "iterations"),
            "spectral.matvecs": count("spectral.laplacian_apply"),
            "spectral.useful_solve_frac": 1.0 / cg_solves if cg_solves else 0.0,
            "sweep.fast_sweep_s": total("sweep.fast_sweep"),
            "sweep.table_s": total("sweep.build_sweep_table"),
            "sweep.edge_visits": total("sweep.build_sweep_table", "edge_visits"),
            "sweep.candidates": total("sweep.build_sweep_table", "candidates"),
            "graph.community_s": total("graph.community"),
            "graph.edge_counts_calls": count("graph.edge_counts"),
            "graph.edge_counts_s": total("graph.edge_counts"),
            "metrics.metric_report_s": total("metrics.metric_report"),
            "harness.query_self_s": selft[root.sid],
            "harness.output_nodes": root.attrs.get("output_nodes", 0),
            "harness.volume_ratio": root.attrs.get("volume_ratio", 0.0),
            "spectral.correlation_gap": sum(
                abs(s.attrs["correlation"] - s.attrs["kappa"]) for s in solves),
        }
        for layer in QUERY_LAYERS:
            row[f"{layer}.self_s"] = sum(selft[s.sid] for s in qs if s.layer == layer)
        per_query.append(row)
    for key in per_query[0] if per_query else ():
        m[key] = _median([row[key] for row in per_query])

    matvecs = [s for s in sp if s.name == "spectral.laplacian_apply"]
    m["spectral.matvec_ms"] = 1e3 * _median([s.dur for s in matvecs])
    if matvecs:
        # Computed, not measured: CSR y = A x reads values, column indices
        # and the gathered x once per stored entry, plus the row pointers;
        # d*x - y reads d and x and writes two length-n vectors.
        a = matvecs[-1].attrs
        nnz, n, ib = a["nnz"], a["n"], a["index_bytes"]
        m["spectral.matvec_flops"] = 2 * nnz + 2 * n
        m["spectral.matvec_bytes"] = nnz * (8 + ib + 8) + (n + 1) * ib + 4 * 8 * n
    else:
        m["spectral.matvec_flops"] = m["spectral.matvec_bytes"] = 0
    qms = [1e3 * s.dur for s in sp if s.name == spans.QUERY_SPAN and s.parent is None]
    m["harness.query_ms_p50"] = _median(qms)
    m["harness.query_ms_p99"] = float(np.percentile(qms, 99)) if qms else 0.0
    return {k: m.get(k, 0) for k in PER_LAYER}


EXPECT_NONZERO = {
    "local-100k": ("io.edges_parsed", "io.bytes_read", "spectral.eigenpair_matvecs",
                   "spectral.search_steps", "spectral.cg_solves", "spectral.cg_iterations",
                   "spectral.matvecs", "sweep.fast_sweep_s", "sweep.table_s",
                   "sweep.edge_visits", "sweep.candidates", "graph.edge_counts_calls",
                   "harness.output_nodes", "harness.volume_ratio"),
    "campaign-small": ("synth.generate_s", "synth.build_graph_s", "spectral.search_steps",
                       "spectral.cg_solves", "spectral.cg_iterations", "spectral.matvecs",
                       "sweep.fast_sweep_s", "sweep.table_s", "sweep.edge_visits",
                       "sweep.candidates", "graph.edge_counts_calls",
                       "harness.output_nodes", "harness.volume_ratio"),
}
EXPECT_ZERO = {
    "local-100k": (),
    "campaign-small": ("io.edges_parsed", "io.bytes_read"),
}


def finish_trace(out: Outcome, tracer, first_qids, warm_qids, walls: dict, name: str,
                 overhead: float, dump_to: Path) -> None:
    """Fill the per-layer metrics, run the counter cross-checks and the
    check that every traced query's span self times add up to the wall time
    the benchmark measured around it, then write the spans out."""
    m = out.metrics = layer_metrics(tracer, first_qids, warm_qids)
    m["trace.overhead_frac"] = overhead
    out.problems += checks.check_counters(
        tracer.spans,
        {k: m[k] for k in EXPECT_NONZERO[name]},
        {k: m[k] for k in EXPECT_ZERO[name]},
    )
    selft = spans.self_times(tracer.spans)
    byq = spans.query_spans(tracer.spans)
    worst = 0.0
    for qid, wall in walls.items():
        gap = checks.self_time_gap(byq[qid], selft, wall)
        worst = max(worst, gap)
        if gap > SELF_TIME_SLACK_S + SELF_TIME_SLACK_FRAC * wall:
            out.problems.append(f"query {qid}: span self times miss its wall time by {gap:.6f} s")
    out.report.update({
        "traced_queries": len(walls),
        "spans": len(tracer.spans),
        "max_self_time_gap_s": worst,
        "spans_file": dump_to.name,
    })
    tracer.dump(dump_to)
