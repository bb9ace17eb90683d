"""Seed-driven discovery of mutually antagonistic node groups in signed
graphs: a spectral solver with a correlation constraint toward the seeds,
linear-time threshold rounding, evaluation metrics, synthetic benchmarks,
and brute-force certificates for the provable bounds."""

from .graph import (
    Community,
    EdgeCounts,
    EdgeList,
    GraphError,
    SeedVector,
    SignedGraph,
    build_graph,
    community,
    edge_counts,
    largest_component,
    seed_vector,
)
from .harness import (
    ExperimentConfig,
    QueryConfig,
    experiment_csv,
    filter_overlaps,
    query,
    run_experiment,
    sample_seed_pairs,
)
from .io import IngestError, ingest, read_edge_list, read_ground_truth, write_edge_list, write_ground_truth
from .metrics import MetricReport, average_precision, ham, metric_report, polarity
from .oracle import (
    ApproximationReport,
    CheegerCertificate,
    KktReport,
    OracleError,
    RelaxationReport,
    beta,
    bisect_shift,
    brute_force_cheeger,
    correlation_at,
    grid_search_minimum,
    indicator_vector,
    kkt_check,
    naive_sweep,
    rayleigh_quotient,
    verify_approximation,
    verify_relaxation,
)
from .spectral import (
    ConvergenceError,
    EigenPair,
    SolverError,
    SpectralSolution,
    laplacian_apply,
    normalized_laplacian_apply,
    smallest_eigenpair,
    solve_seeded,
    solve_shifted,
)
from .sweep import SweepError, SweepTable, build_sweep_table, fast_sweep
from .synth import (
    GroundTruth,
    SynthError,
    SynthParams,
    generate,
    generate_scaled,
    random_signed_graph,
    reference_average_degree,
)

__version__ = "0.1.0"
