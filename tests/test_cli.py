import json

import pytest

from signedpolar import cli
from signedpolar.cli import main
from signedpolar.graph import GraphError
from signedpolar.harness import EXPERIMENT_COLUMNS, TIMING_COLUMNS


@pytest.fixture
def t3_file(tmp_path):
    path = tmp_path / "t3.edges"
    path.write_text("a b 1\na c 1\nb c -1\n")
    return path


class TestQueryCommand:
    def test_json_output(self, t3_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main([
            "query", "--graph", str(t3_file), "--s1", "a", "--s2", "c",
            "--kappa", "0.9", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kappa"] == 0.9
        assert "a" in doc["c1"] and "c" in doc["c2"]
        assert doc["timings"]["round_ms"] >= 0

    def test_volume_budget_flag_sets_kappa(self, t3_file, capsys):
        code = main(["query", "--graph", str(t3_file), "--s1", "a", "--s2", "c",
                     "--k", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kappa"] == pytest.approx(0.5)

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["query", "--graph", str(tmp_path / "nope.edges"), "--s1", "a"])
        assert code == 2

    def test_directory_as_graph_is_data_error(self, tmp_path, capsys):
        code = main(["query", "--graph", str(tmp_path), "--s1", "a"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path) in err

    def test_directory_as_output_fails_before_the_ingest(self, t3_file, tmp_path,
                                                          monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "ingest", lambda *a, **k: calls.append(a))
        code = main(["query", "--graph", str(t3_file), "--s1", "a", "--s2", "c",
                     "--out", str(tmp_path)])
        assert code == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path) in err

    def test_unknown_label_is_data_error(self, t3_file):
        code = main(["query", "--graph", str(t3_file), "--s1", "zzz"])
        assert code == 2

    def test_failed_query_leaves_an_existing_output_as_it_was(self, t3_file, tmp_path):
        out = tmp_path / "result.json"
        out.write_text("earlier result\n")
        code = main(["query", "--graph", str(t3_file), "--s1", "zzz", "--out", str(out)])
        assert code == 2
        assert out.read_text() == "earlier result\n"

    def test_failed_query_makes_no_output_file(self, t3_file, tmp_path):
        out = tmp_path / "result.json"
        code = main(["query", "--graph", str(t3_file), "--s1", "zzz", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_output_may_be_the_graph_it_reads(self, t3_file, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(t3_file.read_bytes())
        code = main(["query", "--graph", str(path), "--s1", "a", "--s2", "c",
                     "--out", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["kappa"] > 0

    def test_query_output_replaces_a_longer_file(self, t3_file, tmp_path):
        out = tmp_path / "result.json"
        out.write_text("x" * 100_000)
        assert main(["query", "--graph", str(t3_file), "--s1", "a", "--s2", "c",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kappa"] > 0

    def test_bad_kappa_is_usage_error(self, t3_file, capsys):
        code = main(["query", "--graph", str(t3_file), "--s1", "a", "--kappa", "1.0"])
        assert code == 1
        assert "argument --kappa: must lie in [0, 1), got 1.0" in capsys.readouterr().err

    def test_unreachable_eps_is_solver_error(self, t3_file):
        code = main(["query", "--graph", str(t3_file), "--s1", "a", "--s2", "c",
                     "--kappa", "0.9", "--eps", "1e-18"])
        assert code == 3

    @pytest.mark.parametrize("k", ["0", "0.5", "1", "-1"])
    def test_volume_budget_at_most_one_is_usage_error(self, t3_file, k, capsys):
        code = main(["query", "--graph", str(t3_file), "--s1", "a", "--k", k])
        assert code == 1
        assert "must be greater than 1" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["query"]) == 1

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("args, message", [
    (["oracle-check", "--max-nodes", "5"], "must lie in [6, 16]"),
    (["oracle-check", "--max-nodes", "40"], "must lie in [6, 16]"),
    (["oracle-check", "--instances", "-3"], "must be at least 1"),
    (["oracle-check", "--instances", "0"], "must be at least 1"),
    (["experiment", "--graphs", "-1"], "must be at least 1"),
    (["experiment", "--queries", "0"], "must be at least 1"),
    (["experiment", "--pairs", "0"], "must be at least 1"),
    (["experiment", "--band-size", "0"], "must be at least 1"),
    (["experiment", "--seed-sizes", "0"], "must be at least 1"),
    (["experiment", "--seed-sizes", "2,-1"], "must be at least 1"),
    (["synth", "--pairs", "0", "--out", "x"], "argument --pairs: must be at least 1"),
    (["synth", "--band-size", "0", "--out", "x"], "argument --band-size: must be at least 1"),
    (["synth", "--outliers", "-1", "--out", "x"], "argument --outliers: must be at least 0"),
    (["experiment", "--outliers", "-1"], "argument --outliers: must be at least 0"),
    (["oracle-check", "--seed", "-1"], "argument --seed: must be at least 0"),
    (["experiment", "--seed", "-1"], "argument --seed: must be at least 0"),
    (["synth", "--seed", "-1", "--out", "x"], "argument --seed: must be at least 0"),
    (["bench", "--seed", "-1"], "argument --seed: must be at least 0"),
    (["bench", "--nodes", "0"], "argument --nodes: must be at least 322, got 0"),
    (["bench", "--nodes", "321"], "argument --nodes: must be at least 322, got 321"),
])
def test_count_out_of_range_is_usage_error(args, message, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err


@pytest.mark.parametrize("args, option, rule", [
    (["query", "--graph", "g.edges", "--kappa", "-0.1"], "--kappa", "lie in [0, 1)"),
    (["experiment", "--kappas", "0.5,1.2"], "--kappas", "lie in [0, 1)"),
    (["query", "--graph", "g.edges", "--eps", "0"], "--eps", "be positive"),
    (["experiment", "--eps", "nan"], "--eps", "be positive"),
    (["experiment", "--eta", "0,2"], "--eta", "lie in [0, 1]"),
    (["synth", "--eta", "-0.5", "--out", "x"], "--eta", "lie in [0, 1]"),
    (["bench", "--avg-degree", "-3"], "--avg-degree", "be positive and finite"),
    (["bench", "--avg-degree", "0"], "--avg-degree", "be positive and finite"),
    (["bench", "--avg-degree", "nan"], "--avg-degree", "be positive and finite"),
    (["bench", "--avg-degree", "inf"], "--avg-degree", "be positive and finite"),
    (["experiment", "--kappas", ""], "--kappas", "list at least one value"),
    (["experiment", "--eta", ","], "--eta", "list at least one value"),
    (["experiment", "--seed-sizes", ",,"], "--seed-sizes", "list at least one value"),
])
def test_value_out_of_range_is_usage_error(args, option, rule, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {option}: must {rule}, got ")


@pytest.mark.parametrize("args, option", [
    (["oracle-check", "--instances", "abc"], "--instances"),
    (["oracle-check", "--max-nodes", "8.5"], "--max-nodes"),
    (["query", "--graph", "g.edges", "--k", "two"], "--k"),
    (["experiment", "--graphs", "1e3"], "--graphs"),
    (["experiment", "--pairs", "x"], "--pairs"),
    (["experiment", "--seed-sizes", "2,b"], "--seed-sizes"),
    (["experiment", "--eta", "0,low"], "--eta"),
    (["experiment", "--kappas", "0.5,high"], "--kappas"),
])
def test_text_that_is_no_number_is_usage_error(args, option, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {option}: must be ")
    assert "_arg" not in err and "invalid" not in err


class TestSynthCommand:
    def test_writes_edges_and_truth(self, tmp_path):
        prefix = tmp_path / "toy"
        code = main(["synth", "--pairs", "1", "--band-size", "3", "--eta", "0",
                     "--out", str(prefix)])
        assert code == 0
        edges = (tmp_path / "toy.edges").read_text().strip().split("\n")
        assert len(edges) == 15  # two 3-cliques plus 9 cross edges
        truth = json.loads((tmp_path / "toy.truth.json").read_text())
        assert len(truth["pairs"]) == 1


class TestExperimentCommand:
    def test_deterministic_csv_bytes(self, tmp_path):
        args = ["experiment", "--eta", "0.0", "--pairs", "2", "--band-size", "4",
                "--graphs", "2", "--queries", "2", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_directory_as_output_is_data_error(self, tmp_path, capsys):
        code = main(["experiment", "--eta", "0.0", "--pairs", "1", "--band-size", "3",
                     "--graphs", "1", "--queries", "1", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path) in err

    def test_directory_as_output_fails_before_the_experiment(self, tmp_path,
                                                              monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: calls.append(config))
        code = main(["experiment", "--graphs", "1", "--queries", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path) in err

    def test_failed_experiment_leaves_an_existing_output_as_it_was(self, tmp_path,
                                                                   monkeypatch):
        def fail(config):
            raise GraphError("campaign failed")

        monkeypatch.setattr(cli, "run_experiment", fail)
        out = tmp_path / "result.csv"
        out.write_text("earlier,result\n")
        code = main(["experiment", "--graphs", "1", "--queries", "1", "--out", str(out)])
        assert code == 2
        assert out.read_text() == "earlier,result\n"

    def test_timings_flag_appends_the_timing_columns(self, tmp_path):
        args = ["experiment", "--eta", "0.0", "--pairs", "2", "--band-size", "4",
                "--graphs", "1", "--queries", "2", "--seed", "5"]
        plain, timed = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--timings", "--out", str(timed)]) == 0
        header = timed.read_text().split("\n")[0].split(",")
        assert tuple(header[-4:]) == TIMING_COLUMNS
        assert tuple(header[:-4]) == EXPERIMENT_COLUMNS
        assert plain.read_text().split("\n")[0].split(",") == list(EXPERIMENT_COLUMNS)


class TestBenchCommand:
    def test_degree_without_filler_is_data_error(self, capsys):
        assert main(["bench", "--nodes", "2000", "--avg-degree", "5"]) == 2
        err = capsys.readouterr().err
        assert "leaves no filler edge" in err and "must be above 6.0775" in err

    def test_doubling_run_prints_its_timings(self, capsys):
        assert main(["bench", "--nodes", "2000", "--doubling"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("nodes", "edges", "solve_ms", "round_ms", "doubled_nodes",
                    "dense_round_ms", "doubled_round_ms", "round_scaling"):
            assert key in doc
        assert doc["nodes"] <= 2000 < doc["doubled_nodes"] <= 4000
        assert doc["edges"] > 0 and doc["solve_ms"] > 0 and doc["round_scaling"] > 0
        # both sides of the ratio are timed the same way
        assert doc["round_scaling"] == doc["doubled_round_ms"] / doc["dense_round_ms"]


class TestOracleCheckCommand:
    def test_small_run_passes(self, capsys):
        code = main(["oracle-check", "--instances", "3", "--max-nodes", "8",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3 instances satisfied all bounds" in out
