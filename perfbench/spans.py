"""In-memory span tracing around the package's public entry points.

A hook replaces a function at the module attribute its caller looks it up
by (``signedpolar.spectral.laplacian_apply`` is what ``solve_shifted``
calls), so the package source stays untouched. Each call records a span:
name, start, end, parent span and query id; a hook may also read counters
off the call's arguments and result. Spans stay in memory until
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("sid", "name", "parent", "qid", "start", "end", "attrs")

    def __init__(self, sid, name, parent, qid):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.qid = qid
        self.start = 0.0
        self.end = 0.0
        self.attrs = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# Counter readers: (span, args, kwargs, result) -> None, filling span.attrs.

def _read_edges(span, args, kwargs, out):
    span.attrs["edges"] = len(out)
    span.attrs["bytes"] = os.path.getsize(args[0])


def _answer(span, args, kwargs, out):
    span.attrs["ap"] = out["metrics"]["ap"]
    span.attrs["beta"] = out["beta"]


def _query_doc(span, args, kwargs, out):
    from signedpolar.harness import DEFAULT_KAPPA

    _answer(span, args, kwargs, out)
    g, s1, s2 = args[:3]
    kappa = kwargs.get("kappa", DEFAULT_KAPPA)
    seed_volume = float(sum(g.degrees[g.index_of(lab)] for lab in (*s1, *s2)))
    span.attrs["output_nodes"] = len(out["c1"]) + len(out["c2"])
    # Output volume over the k * vol(seeds) budget, k = 1 / kappa^2.
    span.attrs["volume_ratio"] = out["metrics"]["volume"] * kappa**2 / seed_volume


def _params(span, args, kwargs, out):
    span.attrs["eta"] = args[0].eta


def _solution(span, args, kwargs, out):
    span.attrs["cg_iterations"] = out.cg_iterations
    span.attrs["search_steps"] = out.search_steps
    span.attrs["correlation"] = out.correlation
    span.attrs["kappa"] = out.kappa_target


def _eigenpair(span, args, kwargs, out):
    span.attrs["residual"] = out.residual


def _cg(span, args, kwargs, out):
    span.attrs["iterations"] = out[1]


def _matvec(span, args, kwargs, out):
    g = args[0]
    span.attrs["nnz"] = g.adjacency.nnz
    span.attrs["n"] = g.node_count
    span.attrs["index_bytes"] = g.adjacency.indices.itemsize


def _table(span, args, kwargs, out):
    g = args[0]
    span.attrs["edge_visits"] = int(out.edge_visits)
    span.attrs["candidates"] = int(np.count_nonzero(out.threshold_end))
    span.attrs["m"] = g.edge_count
    span.attrs["n"] = g.node_count


# (module, attribute, span name, counter reader). The span name's prefix is
# the layer the time is charged to.
HOOKS = (
    ("signedpolar.io", "ingest", "io.ingest", None),
    ("signedpolar.io", "read_edge_list", "io.read_edge_list", _read_edges),
    ("signedpolar.io", "build_graph", "graph.build_graph", None),
    ("signedpolar.io", "largest_component", "graph.largest_component", None),
    ("signedpolar.harness", "generate", "synth.generate", _params),
    ("signedpolar.synth", "build_graph", "synth.build_graph", None),
    ("signedpolar.harness", "query", "harness.query", _query_doc),
    ("signedpolar.harness", "seed_vector", "graph.seed_vector", None),
    ("signedpolar.harness", "solve_seeded", "spectral.solve_seeded", _solution),
    ("signedpolar.spectral", "smallest_eigenpair", "spectral.smallest_eigenpair", _eigenpair),
    ("signedpolar.spectral", "solve_shifted", "spectral.solve_shifted", _cg),
    ("signedpolar.spectral", "laplacian_apply", "spectral.laplacian_apply", _matvec),
    ("signedpolar.harness", "fast_sweep", "sweep.fast_sweep", None),
    ("signedpolar.sweep", "build_sweep_table", "sweep.build_sweep_table", _table),
    ("signedpolar.sweep", "community", "graph.community", None),
    ("signedpolar.harness", "community", "graph.community", None),
    ("signedpolar.graph", "edge_counts", "graph.edge_counts", None),
    ("signedpolar.metrics", "edge_counts", "graph.edge_counts", None),
    ("signedpolar.harness", "metric_report", "metrics.metric_report", None),
)

# Untraced campaign runs install only these two hooks: a query's latency is
# its span, and a synth.generate span right before it marks the first query
# on a freshly generated graph.
CLOCK_HOOKS = (
    ("signedpolar.harness", "generate", "synth.generate", _params),
    ("signedpolar.harness", "query", "harness.query", _answer),
)

# A call to this span opens a new query: it and everything below it share
# one query id.
QUERY_SPAN = "harness.query"


class Tracer:
    """Collects spans while its hooks are installed (see :meth:`installed`)."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.last_qid: int | None = None
        self._stack: list[Span] = []
        self._next_qid = 0
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, reader):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if parent is not None:
                qid = parent.qid
            elif name == QUERY_SPAN:
                qid = tracer._next_qid
                tracer._next_qid += 1
                tracer.last_qid = qid
            else:
                qid = None
            span = Span(len(tracer.spans), name, parent.sid if parent else None, qid)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if reader is not None:
                reader(span, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Install every hook for the duration of the block, then restore
        the original functions."""
        if self._saved:
            raise RuntimeError("tracer hooks are already installed")
        try:
            for modname, attr, name, reader in self.hooks:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, reader))
            yield self
        finally:
            for mod, attr, fn in reversed(self._saved):
                setattr(mod, attr, fn)
            self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "query": s.qid,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run one after another (the benchmark is single
    threaded), so the covered time is the sum of their durations.
    """
    out = {s.sid: s.dur for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.dur
    return out


def query_spans(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.qid is not None:
            out.setdefault(s.qid, []).append(s)
    return out


def children_of(spans) -> dict:
    """Map each span id (and None, for roots) to its direct children."""
    out: dict = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def below(children: dict, root: Span) -> list[Span]:
    """Every span under ``root``, given the map from :func:`children_of`."""
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop().sid, []):
            out.append(c)
            todo.append(c)
    return out
