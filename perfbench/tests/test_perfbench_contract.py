"""BENCHMARK.json agrees with the code, and the command refuses to run
without the package source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402

ROOT = BENCH.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["local-100k", "campaign-small"]
    assert set(names) == set(workloads.EXPECT_NONZERO) == set(workloads.EXPECT_ZERO)
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["bound"] == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = _spec()
    proc = subprocess.run(
        spec["command"] + ["--workload", "campaign-small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
