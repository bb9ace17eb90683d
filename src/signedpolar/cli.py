"""Command-line entry points.

Subcommands: ``query`` (single seeded search), ``synth`` (write a synthetic
graph plus ground truth), ``experiment`` (parameter-grid campaign to CSV),
``oracle-check`` (brute-force bound suite on small random instances), and
``bench`` (timing smoke test at scale).

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver/verification
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from .graph import GraphError
from .harness import (
    DEFAULT_EPS,
    DEFAULT_KAPPA,
    ExperimentConfig,
    experiment_csv,
    query,
    run_experiment,
    sample_seed_pairs,
)
from .io import IngestError, ingest, write_edge_list, write_ground_truth
from .metrics import MetricError
from .oracle import (
    BRUTE_FORCE_NODE_LIMIT,
    OracleError,
    verify_approximation,
    verify_relaxation,
)
from .spectral import SolverError
from .sweep import fast_sweep
from .synth import (
    SynthError,
    SynthParams,
    generate,
    generate_scaled,
    random_signed_graph,
    reference_average_degree,
    scaled_min_nodes,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

ORACLE_MIN_NODES = 6  # the smallest random instance oracle-check draws
_BENCH_PLANT = {"pairs": 8, "band_size": 20}  # bench's planted structure

EPS_HELP = ("bound on |c - kappa| for the solution's seed correlation c, "
            "which the final solve must meet; the solver runs to a fixed "
            "residual tolerance whatever its value")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _labels_arg(text: str) -> tuple:
    return tuple(t for t in text.split(",") if t)


def _number(kind, test=None, rule=""):
    """An argparse type that reads ``kind``. Text that is no number, or a
    value that fails ``test``, raises ``ArgumentTypeError``, so the usage
    error names the option and ``rule``, not a parsing function."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"must be {noun}, got {text!r}") from None
        if test is not None and not test(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value
    return parse


# The range tests are written so that nan fails them.
_count_arg = _number(int, lambda n: n >= 1, "be at least 1")
_nonnegative_arg = _number(int, lambda n: n >= 0, "be at least 0")
_max_nodes_arg = _number(int, lambda n: ORACLE_MIN_NODES <= n <= BRUTE_FORCE_NODE_LIMIT,
                         f"lie in [{ORACLE_MIN_NODES}, {BRUTE_FORCE_NODE_LIMIT}]")
_budget_arg = _number(float, lambda k: k > 1.0,
                      "be greater than 1 so that kappa = sqrt(1/k) < 1")
_kappa_arg = _number(float, lambda k: 0.0 <= k < 1.0, "lie in [0, 1)")
_eps_arg = _number(float, lambda e: e > 0.0, "be positive")
_eta_arg = _number(float, lambda e: 0.0 <= e <= 1.0, "lie in [0, 1]")
_degree_arg = _number(float, lambda d: 0.0 < d < np.inf, "be positive and finite")
_BENCH_MIN_NODES = scaled_min_nodes(**_BENCH_PLANT)
_bench_nodes_arg = _number(int, lambda n: n >= _BENCH_MIN_NODES,
                           f"be at least {_BENCH_MIN_NODES}")


def _list_of(item):
    """An argparse type that reads a comma-separated list of ``item``; a
    list with no item is a usage error."""
    def parse(text: str) -> tuple:
        values = tuple(item(t) for t in text.split(",") if t)
        if not values:
            raise argparse.ArgumentTypeError(f"must list at least one value, got {text!r}")
        return values
    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="signedpolar", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="run one seeded search on a graph file")
    q.add_argument("--graph", required=True)
    q.add_argument("--directed", action="store_true")
    q.add_argument("--s1", type=_labels_arg, default=())
    q.add_argument("--s2", type=_labels_arg, default=())
    q.add_argument("--kappa", type=_kappa_arg, default=DEFAULT_KAPPA)
    q.add_argument("--k", type=_budget_arg, default=None,
                   help="volume budget k > 1; sets kappa = sqrt(1/k)")
    q.add_argument("--eps", type=_eps_arg, default=DEFAULT_EPS, help=EPS_HELP)
    q.add_argument("--emit-vector", action="store_true")
    q.add_argument("--out", default=None)

    s = sub.add_parser("synth", help="write a synthetic polarized graph")
    s.add_argument("--eta", type=_eta_arg, default=0.05)
    s.add_argument("--pairs", type=_count_arg, default=8)
    s.add_argument("--band-size", type=_count_arg, default=20)
    s.add_argument("--outliers", type=_nonnegative_arg, default=0)
    s.add_argument("--seed", type=_nonnegative_arg, default=0)
    s.add_argument("--out", required=True,
                   help="prefix; writes <out>.edges and <out>.truth.json")

    e = sub.add_parser("experiment", help="parameter-grid campaign to CSV")
    e.add_argument("--eta", type=_list_of(_eta_arg), default=(0.05,))
    e.add_argument("--seed-sizes", type=_list_of(_count_arg), default=(2,))
    e.add_argument("--kappas", type=_list_of(_kappa_arg), default=(DEFAULT_KAPPA,))
    e.add_argument("--pairs", type=_count_arg, default=8)
    e.add_argument("--band-size", type=_count_arg, default=20)
    e.add_argument("--outliers", type=_nonnegative_arg, default=0)
    e.add_argument("--graphs", type=_count_arg, default=10)
    e.add_argument("--queries", type=_count_arg, default=10)
    e.add_argument("--eps", type=_eps_arg, default=DEFAULT_EPS, help=EPS_HELP)
    e.add_argument("--seed", type=_nonnegative_arg, default=0)
    e.add_argument("--timings", action="store_true",
                   help="append wall-time columns (breaks byte determinism)")
    e.add_argument("--out", default=None)

    o = sub.add_parser("oracle-check",
                       help="verify the provable bounds on small instances")
    o.add_argument("--instances", type=_count_arg, default=30)
    o.add_argument("--max-nodes", type=_max_nodes_arg, default=12)
    o.add_argument("--seed", type=_nonnegative_arg, default=0)

    b = sub.add_parser("bench", help="timing smoke test on a synthetic graph")
    b.add_argument("--nodes", type=_bench_nodes_arg, default=100_000)
    b.add_argument("--avg-degree", type=_degree_arg, default=None)
    b.add_argument("--eta", type=_eta_arg, default=0.05)
    b.add_argument("--kappa", type=_kappa_arg, default=DEFAULT_KAPPA)
    b.add_argument("--seed", type=_nonnegative_arg, default=0)
    b.add_argument("--doubling", action="store_true",
                   help="also time the rounding step on a dense vector, here "
                        "and at twice the node count")
    return p


@contextlib.contextmanager
def _output(out_path):
    """A function that writes a command's result to ``--out``, or to
    standard output without it. A command enters this before its work, so
    that a path it cannot write fails at once, not after the work. The file
    is opened to append and emptied only when the result is written: a run
    that fails leaves a file that was there as it was, and removes one that
    it made."""
    if not out_path:
        yield sys.stdout.write
        return
    made = not os.path.exists(out_path)
    with open(out_path, "a", encoding="utf-8") as fh:

        def write(text: str) -> None:
            fh.truncate(0)
            fh.write(text)

        try:
            yield write
        except BaseException:
            if made:
                os.remove(out_path)
            raise


def _cmd_query(args) -> int:
    kappa = args.kappa if args.k is None else float(np.sqrt(1.0 / args.k))
    with _output(args.out) as write:
        g = ingest(args.graph, directed=args.directed)
        doc = query(
            g,
            args.s1,
            args.s2,
            kappa=kappa,
            eps=args.eps,
            emit_vector=args.emit_vector,
        )
        write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_synth(args) -> int:
    g, truth = generate(
        SynthParams(
            pairs=args.pairs,
            band_size=args.band_size,
            outliers=args.outliers,
            eta=args.eta,
            rng_seed=args.seed,
        )
    )
    write_edge_list(f"{args.out}.edges", g)
    write_ground_truth(f"{args.out}.truth.json", truth)
    sys.stderr.write(
        f"wrote {g.node_count} nodes, {g.edge_count} edges to {args.out}.edges\n"
    )
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        etas=args.eta,
        seed_sizes=args.seed_sizes,
        kappas=args.kappas,
        pairs=args.pairs,
        band_size=args.band_size,
        outliers=args.outliers,
        graphs_per_config=args.graphs,
        queries_per_graph=args.queries,
        eps=args.eps,
        rng_seed=args.seed,
        include_timings=args.timings,
    )
    with _output(args.out) as write:
        write(experiment_csv(run_experiment(config)))
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    violations = 0
    for i in range(args.instances):
        n = int(rng.integers(ORACLE_MIN_NODES, args.max_nodes + 1))
        g = random_signed_graph(
            n, extra_edges=int(rng.integers(n, 3 * n)),
            rng_seed=int(rng.integers(2**63)),
        )
        nodes = rng.permutation(n)
        s1, s2 = {int(nodes[0])}, {int(nodes[1])}
        k = float(rng.choice([2.0, 3.0, 4.0]))
        rel = verify_relaxation(g, s1, s2, k)
        app = verify_approximation(g, s1, s2, k)
        ok = rel.ok and app.ok
        violations += 0 if ok else 1
        print(
            f"instance {i:3d} n={n:2d} k={k:.0f} "
            f"lambda={rel.lambda_value:.4f} h={rel.h_value:.4f} "
            f"beta_out={app.beta_out:.4f} "
            f"{'ok' if ok else 'VIOLATION'}"
        )
    print(f"{args.instances - violations}/{args.instances} instances satisfied all bounds")
    if violations:
        raise SolverError(f"{violations} bound violations")
    return EXIT_OK


def _dense_round_ms(g, rng_seed: int) -> float:
    """The rounding step alone, best of 3, on a dense standard-normal
    vector: its worst case."""
    x = np.random.default_rng(rng_seed).standard_normal(g.node_count)
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        fast_sweep(g, x)
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


def _cmd_bench(args) -> int:
    avg_degree = args.avg_degree
    if avg_degree is None:
        avg_degree = reference_average_degree(SynthParams(**_BENCH_PLANT, eta=args.eta))
    g, _ = generate_scaled(args.nodes, avg_degree, **_BENCH_PLANT, eta=args.eta,
                           rng_seed=args.seed)
    pair = sample_seed_pairs(g, t=0.0, count=1, rng_seed=args.seed)[0]
    timings = query(g, [pair[0]], [pair[1]], kappa=args.kappa)["timings"]
    solve_ms, round_ms = timings["solve_ms"], timings["round_ms"]
    doc = {
        "nodes": g.node_count,
        "edges": g.edge_count,
        "avg_degree": 2 * g.edge_count / g.node_count,
        "solve_ms": solve_ms,
        "round_ms": round_ms,
        "total_ms": solve_ms + round_ms,
    }
    if args.doubling:
        g2, _ = generate_scaled(2 * args.nodes, avg_degree, **_BENCH_PLANT,
                                eta=args.eta, rng_seed=args.seed + 1)
        dense_ms = _dense_round_ms(g, args.seed)
        doubled_ms = _dense_round_ms(g2, args.seed + 1)
        doc["doubled_nodes"] = g2.node_count
        doc["dense_round_ms"] = dense_ms
        doc["doubled_round_ms"] = doubled_ms
        doc["round_scaling"] = doubled_ms / dense_ms
    print(json.dumps(doc, indent=2))
    return EXIT_OK


_COMMANDS = {
    "query": _cmd_query,
    "synth": _cmd_synth,
    "experiment": _cmd_experiment,
    "oracle-check": _cmd_oracle_check,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (IngestError, GraphError, SynthError, MetricError, OSError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except (SolverError, OracleError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
