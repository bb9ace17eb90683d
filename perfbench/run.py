"""Query benchmark for signedpolar, with known answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload local-100k --seed 1 --seconds 10 --trace 0

Workloads: ``local-100k`` and ``campaign-small`` (see
``perfbench/README.md``). With ``--trace 0`` the run reports the end-to-end
metrics, with tracing off; with ``--trace 1`` it installs span hooks and
reports the per-layer metrics instead. The inputs are generated from
``--seed``; every answer is checked. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# BLAS/OpenMP thread count, fixed before numpy is first imported and
# recorded with every result.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("local-100k", "campaign-small")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signedpolar" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import envinfo
    import workloads

    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "campaign-small":
            out = workloads.run_campaign(args.seed, args.seconds, bool(args.trace), workdir, SRC)
        else:
            out = workloads.run_local(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    samples = {} if args.trace else out.report.get("samples", {})
    for name, unit in units.items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"{name:32s} {out.metrics[name]:>16.6g} {unit}{n}")
    print(f"{'failed_frac':32s} {out.failed / max(out.attempted, 1):>16.6g} ratio "
          f"({out.failed} of {out.attempted})")
    print("report " + json.dumps({"env": envinfo.record(), **out.report}, default=str))
    for p in out.problems[:workloads.MAX_PROBLEMS_SHOWN]:
        print(f"FAIL {p}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": float(out.metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
