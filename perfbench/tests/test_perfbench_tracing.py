"""Span hooks, self times and the counter cross-checks."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402
from signedpolar import harness, io, spectral  # noqa: E402

import checks  # noqa: E402
import graphgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = graphgen.GenSpec(nodes=2000, avg_degree=20.0, pairs=2, band_size=20, bridges=2)
NONZERO = ("spectral.cg_solves", "spectral.cg_iterations", "spectral.matvecs",
           "sweep.edge_visits", "graph.edge_counts_calls", "io.edges_parsed")


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    inst = graphgen.generate(SPEC, 5)
    path = tmp_path_factory.mktemp("bench") / "g.edges"
    graphgen.write_edges(inst, path)
    return inst, path


def _traced_run(inst, path, hooks=spans.HOOKS):
    tracer = spans.Tracer(hooks)
    a, b = inst.pair_labels(0)
    with tracer.installed():
        g = io.ingest(path)
        for i in range(2):
            doc = harness.query(g, [a[i]], [b[i]], kappa=0.5)
    walls = {s.qid: s.dur for s in tracer.spans if s.name == spans.QUERY_SPAN}
    return tracer, walls, doc


def test_hooks_are_restored(small):
    inst, path = small
    original = spectral.laplacian_apply
    _traced_run(inst, path)
    assert spectral.laplacian_apply is original
    assert harness.query.__module__ == "signedpolar.harness"
    assert not hasattr(harness.query, "__wrapped__")


def test_traced_answer_is_right_and_counters_agree(small):
    inst, path = small
    tracer, walls, doc = _traced_run(inst, path)
    a, b = inst.pair_labels(0)
    assert checks.check_local(doc, a, b, graphgen.pair_beta(inst, 0)) == []

    m = workloads.layer_metrics(tracer, [0], [1])
    assert set(m) == set(workloads.PER_LAYER)
    assert checks.check_counters(tracer.spans, {k: m[k] for k in NONZERO}, {}) == []
    assert m["sweep.edge_visits"] >= m["io.edges_parsed"]
    assert m["spectral.useful_solve_frac"] == pytest.approx(1 / m["spectral.cg_solves"])


def test_self_times_add_up_to_each_query(small):
    inst, path = small
    tracer, walls, _ = _traced_run(inst, path)
    selft = spans.self_times(tracer.spans)
    byq = spans.query_spans(tracer.spans)
    assert len(byq) == 2
    for qid, wall in walls.items():
        assert checks.self_time_gap(byq[qid], selft, wall) < 1e-9
        assert all(selft[s.sid] >= -1e-9 for s in byq[qid])


def test_bypassed_entry_point_shows_as_broken_counter(small):
    # Without the solve_shifted hook the CG iterations reported by the
    # solution have no matching calls at the hook.
    inst, path = small
    hooks = tuple(h for h in spans.HOOKS if h[1] != "solve_shifted")
    tracer, _, _ = _traced_run(inst, path, hooks)
    m = workloads.layer_metrics(tracer, [0], [1])
    problems = checks.check_counters(tracer.spans, {k: m[k] for k in NONZERO}, {})
    assert any("CG iterations" in p for p in problems)
    assert "counter spectral.cg_solves is zero" in problems


def test_bypassed_sweep_table_shows(small):
    inst, path = small
    hooks = tuple(h for h in spans.HOOKS if h[1] != "build_sweep_table")
    tracer, _, _ = _traced_run(inst, path, hooks)
    m = workloads.layer_metrics(tracer, [0], [1])
    problems = checks.check_counters(tracer.spans, {"sweep.table_s": m["sweep.table_s"]}, {})
    assert any("0 prefix tables in one sweep" in p for p in problems)
    assert "counter sweep.table_s is zero" in problems


def test_campaign_queries_mark_first_query_per_graph():
    cfg = harness.ExperimentConfig(etas=(0.0, 0.05), pairs=2, band_size=5,
                                   graphs_per_config=2, queries_per_graph=3)
    clock = spans.Tracer(spans.CLOCK_HOOKS)
    with clock.installed():
        rows = harness.run_experiment(cfg)
    recs = workloads.campaign_queries(clock.spans)
    assert sum(r["queries"] for r in rows) == len(recs) == 12
    assert sum(first for _, first, _ in recs) == 4
    assert [eta for _, _, eta in recs] == [0.0] * 6 + [0.05] * 6
    assert all(s.attrs["ap"] == 1.0 for s, _, eta in recs if eta == 0.0)


def test_counter_checks_reject_forged_counts(small):
    inst, path = small
    tracer, _, _ = _traced_run(inst, path)
    table = next(s for s in tracer.spans if s.name == "sweep.build_sweep_table")
    table.attrs["edge_visits"] = table.attrs["m"] - 1
    problems = checks.check_counters(tracer.spans, {}, {"spectral.cg_solves": 3})
    assert any("edge_visits" in p for p in problems)
    assert "counter spectral.cg_solves is 3, expected zero" in problems
