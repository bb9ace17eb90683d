"""Correctness checks on query answers and on the traced counters.

Every check returns a list of problems (empty when the answer is right), so
the workloads can count failed queries and the tests can show that each
check rejects a wrong answer.
"""

from __future__ import annotations

from spans import below, children_of

BETA_REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= BETA_REL_TOL * max(1.0, abs(a), abs(b))


def same_bands(c1, c2, d1, d2) -> bool:
    """Equal band pairs up to swapping the two sides."""
    c1, c2, d1, d2 = set(c1), set(c2), set(d1), set(d2)
    return (c1 == d1 and c2 == d2) or (c1 == d2 and c2 == d1)


def average_precision(c1, c2, t1, t2) -> float:
    """Mean per-band precision against the planted pair, under the better
    of the two band-to-band assignments; an empty band scores zero."""
    c1, c2, t1, t2 = set(c1), set(c2), set(t1), set(t2)

    def prec(c, t):
        return len(c & t) / len(c) if c else 0.0

    return max(0.5 * (prec(c1, t1) + prec(c2, t2)), 0.5 * (prec(c1, t2) + prec(c2, t1)))


def check_local(doc: dict, band_a, band_b, planted_beta: float) -> list[str]:
    """The query must return exactly the planted pair, with its ratio."""
    problems = []
    if not same_bands(doc["c1"], doc["c2"], band_a, band_b):
        problems.append(
            f"bands of sizes {len(doc['c1'])}/{len(doc['c2'])} are not the planted "
            f"pair ({len(band_a)}/{len(band_b)}), AP "
            f"{average_precision(doc['c1'], doc['c2'], band_a, band_b):.4f}"
        )
    if not _close(doc["beta"], planted_beta):
        problems.append(f"beta {doc['beta']!r} != planted beta {planted_beta!r}")
    return problems


def check_campaign(rows, csv_texts, exact_eta: float = 0.0) -> list[str]:
    """No failed query, AP 1 in the noiseless cells, and byte-identical
    CSV output across runs with the same seed."""
    problems = []
    for row in rows:
        if row["failures"]:
            problems.append(f"eta={row['eta']}: {row['failures']} failed queries")
        if row["eta"] == exact_eta and row["mean_ap"] != 1.0:
            problems.append(f"eta={row['eta']}: mean AP {row['mean_ap']!r} != 1.0")
    if len(csv_texts) < 2:
        problems.append("fewer than two campaign runs to compare")
    elif any(t != csv_texts[0] for t in csv_texts[1:]):
        problems.append("experiment CSV differs between runs with the same seed")
    return problems


def check_counters(spans, expect_nonzero: dict, expect_zero: dict) -> list[str]:
    """Cross-check the counters read at the hooks.

    * Per solve: CG iterations summed over its ``solve_shifted`` children
      equal ``SpectralSolution.cg_iterations``.
    * Per sweep: exactly one ``build_sweep_table`` call under each
      ``fast_sweep``. The table's ``edge_visits`` is reported by the library
      (``3m`` at present), not observed, so it is only held to
      ``[m, 3m + 8n]``, the bound the acceptance suite sets for the sweep.
    * Every counter in ``expect_nonzero`` is non-zero and every one named in
      ``expect_zero`` is zero, so a change that routes around a hooked
      entry point shows as a broken counter rather than as a saving.
    """
    problems = []
    children = children_of(spans)
    for s in spans:
        if s.name == "spectral.solve_seeded":
            cg = [c for c in below(children, s) if c.name == "spectral.solve_shifted"]
            total = sum(c.attrs["iterations"] for c in cg)
            if total != s.attrs["cg_iterations"]:
                problems.append(
                    f"span {s.sid}: CG iterations at solve_shifted {total} != "
                    f"solution.cg_iterations {s.attrs['cg_iterations']}"
                )
        elif s.name == "sweep.fast_sweep":
            tables = [c for c in children.get(s.sid, []) if c.name == "sweep.build_sweep_table"]
            if len(tables) != 1:
                problems.append(f"span {s.sid}: {len(tables)} prefix tables in one sweep")
            for t in tables:
                m, n = t.attrs["m"], t.attrs["n"]
                if not m <= t.attrs["edge_visits"] <= 3 * m + 8 * n:
                    problems.append(
                        f"span {t.sid}: edge_visits {t.attrs['edge_visits']} "
                        f"outside [{m}, {3 * m + 8 * n}]"
                    )
    for name, value in expect_nonzero.items():
        if not value:
            problems.append(f"counter {name} is zero")
    for name, value in expect_zero.items():
        if value:
            problems.append(f"counter {name} is {value}, expected zero")
    return problems


def self_time_gap(spans_of_query, self_time: dict, wall: float) -> float:
    """Absolute difference between a query's summed span self times and the
    wall time the benchmark measured around it."""
    return abs(sum(self_time[s.sid] for s in spans_of_query) - wall)

