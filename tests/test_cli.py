import json

import pytest

from domgame import DEFAULT_SOLVER_CAP, gen_path, parse_edge_list, write_edge_list
from domgame.cli import main


@pytest.fixture()
def p2_file(tmp_path):
    path = tmp_path / "p2.g"
    path.write_text(write_edge_list(gen_path(2)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.g"
    path.write_text(write_edge_list(gen_path(3)), encoding="utf-8")
    return str(path)


def test_solve_p2(p2_file, capsys):
    assert main(["solve", p2_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "gamma_g=1 gamma_g_prime=1"


def test_solve_p3(p3_file, capsys):
    assert main(["solve", p3_file]) == 0
    out = capsys.readouterr().out
    assert "gamma_g=1 gamma_g_prime=2" in out
    assert "optimal_first_dominator=1" in out


def test_solve_oversize_exits_2(tmp_path, capsys):
    big = tmp_path / "big.g"
    big.write_text(write_edge_list(gen_path(25)), encoding="utf-8")
    assert main(["solve", str(big)]) == 2
    assert "exceeds solver cap" in capsys.readouterr().err


def test_solve_respects_env_cap(p3_file, monkeypatch, capsys):
    monkeypatch.setenv("DOMGAME_CAP", "2")
    assert main(["solve", p3_file]) == 2
    assert "exceeds solver cap" in capsys.readouterr().err


def test_negative_env_cap_exits_2(p3_file, monkeypatch, capsys):
    monkeypatch.setenv("DOMGAME_CAP", "-1")
    for argv in (["solve", p3_file], ["verify", "smoke"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: DOMGAME_CAP must be a non-negative integer, got '-1'\n"
        assert captured.out == ""


def test_solve_cap_above_default_exits_2(p3_file, capsys):
    assert main(["solve", p3_file, "--cap", str(DEFAULT_SOLVER_CAP + 1)]) == 2
    captured = capsys.readouterr()
    assert "--cap may lower the solver cap, not raise it" in captured.err
    assert captured.out == ""
    assert main(["solve", p3_file, "--cap", str(DEFAULT_SOLVER_CAP)]) == 0


def test_solve_negative_cap_exits_2(p3_file, capsys):
    assert main(["solve", p3_file, "--cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --cap must be a non-negative integer, got -1\n"
    assert captured.out == ""


def test_seed_past_philox_key_exits_2(p3_file, tmp_path, capsys):
    out = tmp_path / "t.g"
    for argv in (["simulate", p3_file], ["gen", "tree", "5", str(out)]):
        assert main([*argv, "--seed", str(2**128)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be below 2**128\n"
        assert captured.out == ""
        assert main([*argv, "--seed", str(2**128 - 1)]) == 0
        capsys.readouterr()
    assert out.exists()


def test_negative_seed_exits_2_for_every_tree_size(tmp_path, capsys):
    out = tmp_path / "t.g"
    for n in ("2", "3"):
        assert main(["gen", "tree", n, str(out), "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be non-negative\n"
        assert captured.out == ""
    assert not out.exists()


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    for text, where in [("2 1\n0 0\n", "line 2"), ("2000000 1\n0 1\n", "line 1: n=2000000")]:
        bad.write_text(text, encoding="utf-8")
        assert main(["solve", str(bad)]) == 2
        assert where in capsys.readouterr().err


def test_unknown_flag_exits_2(p2_file):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", p2_file, "--no-such-flag"])
    assert exc.value.code == 2


def test_simulate_random_reaches_zero(tmp_path, capsys):
    path = tmp_path / "p4.g"
    path.write_text(write_edge_list(gen_path(4)), encoding="utf-8")
    assert main(["simulate", str(path), "--staller", "random", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "final_potential=0" in out


def test_simulate_staller_start_premove(p2_file, capsys):
    assert main(["simulate", p2_file, "--first", "s"]) == 0
    first = capsys.readouterr().out.splitlines()[0].split()
    assert first[0] == "0" and first[1] == "S"
    assert int(first[5]) >= 6


def test_simulate_worst_case_c4(tmp_path, capsys):
    path = tmp_path / "c4.g"
    from domgame import gen_cycle

    path.write_text(write_edge_list(gen_cycle(4)), encoding="utf-8")
    assert main(["simulate", str(path), "--staller", "worst"]) == 0
    out = capsys.readouterr().out
    total = int(out.split("total=")[1].split()[0])
    assert total <= 2  # floor(20/8)


def test_simulate_json_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "t.g"
    from domgame import gen_random_tree

    path.write_text(write_edge_list(gen_random_tree(8, 5)), encoding="utf-8")
    argv = ["simulate", str(path), "--staller", "random", "--seed", "9", "--json", "--trace"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert len(doc["snapshots"]) == doc["total_moves"] + 1


def test_simulate_refuses_graphs_past_the_vertex_limit(tmp_path, capsys, monkeypatch):
    """simulate plays graphs up to verify's MAX_GRAPH_VERTICES, the limit
    of corpus graphs and gen, and refuses a larger file with exit 2 before
    any move; the limit is lowered here, since a game at the real one
    takes seconds."""
    import domgame.cli as cli

    path = tmp_path / "p5.g"
    path.write_text(write_edge_list(gen_path(5)), encoding="utf-8")
    monkeypatch.setattr(cli, "MAX_GRAPH_VERTICES", 4)
    assert main(["simulate", str(path), "--staller", "min"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "simulate plays graphs of at most 4 vertices, got 5" in captured.err
    monkeypatch.setattr(cli, "MAX_GRAPH_VERTICES", 5)
    assert main(["simulate", str(path), "--staller", "min"]) == 0
    assert "final_potential=0" in capsys.readouterr().out


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "out.g"
    assert main(["gen", "path", "7", str(out)]) == 0
    assert parse_edge_list(out.read_text(encoding="utf-8")) == gen_path(7)
    assert main(["gen", "caterpillar", "3", "1,0,2", str(tmp_path / "cat.g")]) == 0
    assert main(["gen", "tree", "9", str(tmp_path / "t.g"), "--seed", "4"]) == 0
    assert main(["gen", "gnp", "8", "0.4", str(tmp_path / "g.g"), "--seed", "4"]) == 0
    from domgame import gen_random_tree

    assert parse_edge_list((tmp_path / "t.g").read_text(encoding="utf-8")) == gen_random_tree(9, 4)


def test_gen_bad_family_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.g")
    assert main(["gen", "moebius", "7", out]) == 2
    for params in (["path"], ["caterpillar", "3"], ["gnp", "5"], ["path", "4", "5"]):
        assert main(["gen", *params, out]) == 2
        assert "then the output file" in capsys.readouterr().err
    assert not (tmp_path / "x.g").exists()


def test_gen_refuses_oversized_graphs_before_building(tmp_path, capsys, monkeypatch):
    """gen sizes its one graph with the corpus family's size, as verify
    does, and refuses it past the same limits with the same text, before
    any generator runs; gnp counts its vertex pairs, so n = 1414 is
    refused."""
    import domgame.verify as verify

    def unreachable(*args):
        raise AssertionError("a generator ran")

    out = tmp_path / "out.g"
    with monkeypatch.context() as m:
        for name in ("gen_path", "gen_random_tree", "gen_gnp_isolate_free"):
            m.setattr(verify, name, unreachable)
        for params, message in (
                (["path", "200000000"], "family 'paths' would build a graph of 200000000 vertices"),
                (["tree", "200000000"], "family 'trees' would build a graph of 200000000 vertices"),
                (["gnp", "100000", "0.5"], "family 'gnp' would build a graph of 100000 vertices"),
                (["gnp", "1414", "0.5"], "family 'gnp' would bring the corpus to 1000405 vertices")):
            assert main(["gen", *params, str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
    assert main(["gen", "path", "10000", str(out)]) == 0
    assert parse_edge_list(out.read_text(encoding="utf-8")) == gen_path(10000)


def test_verify_smoke_exits_0(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "smoke", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == []
    assert doc["graph_count"] == 9 + 8 + 9


def test_verify_spec_file_and_csv(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "families": [{"name": "paths", "params": {"n_max": 8}}],
        "checks": ["bounds"],
    }), encoding="utf-8")
    assert main(["verify", str(spec), "--csv"]) == 0
    csv = capsys.readouterr().out
    assert csv.splitlines()[0].startswith("label,n,m,hash")
    assert len(csv.splitlines()) == 1 + 7


def test_verify_names_claims_skipped_on_every_graph(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"families": [{"name": "paths", "params": {"n_max": 6}}]}),
                    encoding="utf-8")
    monkeypatch.setenv("DOMGAME_CAP", "0")
    assert main(["verify", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  BOUND_5N8: skipped-exact=5" in lines
    assert lines[-2:] == [
        "skipped on every graph (caps too low): BOUND_5N8, BOUND_STALLER_START, GAP_GG_GGP",
        "all checks that ran passed"]
    for fmt in ("--json", "--csv"):
        assert main(["verify", str(spec), fmt]) == 0
        assert "skipped on every graph" not in capsys.readouterr().out
    monkeypatch.delenv("DOMGAME_CAP")
    assert main(["verify", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "skipped on every graph" not in out
    assert out.endswith("all checks passed\n")


def test_verify_with_no_checks_says_so(tmp_path, capsys):
    """A spec with graphs but an empty checks list runs no check: the text
    report says so where it would say that all checks passed, the JSON
    report lists no check, and the exit code is 0."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"families": [{"name": "paths", "params": {"n_max": 5}}],
                                "checks": []}), encoding="utf-8")
    assert main(["verify", str(spec)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["graphs checked: 4", "no checks requested"]
    assert main(["verify", str(spec), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == [] and doc["graph_count"] == 4 and doc["failures"] == []


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_exits_2(jobs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "smoke", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert f"jobs must be at least 1, got {jobs}" in captured.err
    assert captured.out == ""


def test_verify_bad_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"families": [{"name": "nope"}]}), encoding="utf-8")
    assert main(["verify", str(spec)]) == 2
    assert main(["verify", "no-such-builtin"]) == 2
    paths = {"name": "paths", "params": {"n_max": 4}}
    for bad in ({"families": [paths], "caps": 5},
                {"families": [{**paths, "seeds": ["a"]}]},
                {"families": [paths], "checks": [["x"]]},
                {"families": [{"name": "paths", "params": {}}]},
                {"families": [{"name": "trees", "params": {"n_max": 4}, "seeds": [1.5]}]},
                {"families": [{"name": "paths", "params": {"n_max": [3]}}]},
                {"families": [{"name": "gnp", "params": {"n_max": 4, "p": None}}]},
                {"families": [{"name": "paths", "params": {"n_max": 4.7}}]},
                {"families": [paths], "caps": {"worst_case_n": "5"}},
                {"famlies": [paths]},
                {"families": [{**paths, "seed": [1]}]},
                {"families": [{"name": "paths", "params": {"nmin": 2, "n_max": 4}}]},
                {"families": [paths], "caps": {"worst": 3}},
                {"families": [{"name": "dodecahedra", "params": {"n_max": 4}}]},
                {"families": [{"name": "trees", "params": {"n_min": 2}}]},
                {"families": [paths], "caps": {"solver_n": -1, "worst_case_n": -3}},
                {"families": [{"name": "paths", "params": {"n_min": 9, "n_max": 4}}]},
                {"families": [{"name": "trees", "params": {"n_max": 6}, "seeds": []}]}):
        spec.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["verify", str(spec)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_failure_writes_witnesses_and_exits_1(tmp_path, capsys, monkeypatch):
    import domgame.cli as cli
    from domgame.verify import AggregateReport, ClaimReport, GraphReport, Witness

    failing = GraphReport(
        label="forged", n=2, m=1, graph_hash="abc", ratio_d=None, ratio_s=None,
        transcripts_checked=1,
        reports=(ClaimReport("PH1_MOVES", "fail", "synthetic",
                             Witness("2 1\n0 1\n", note="synthetic")),))
    monkeypatch.setattr(cli, "run_corpus",
                        lambda spec, jobs=1: AggregateReport(["PH1_MOVES"], [failing]))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "smoke"]) == 1
    out = capsys.readouterr().out
    assert "FAILURES: 1" in out
    files = list((tmp_path / "witnesses").glob("*.json"))
    assert len(files) == 1
    doc = json.loads(files[0].read_text(encoding="utf-8"))
    assert doc["id"] == "PH1_MOVES" and doc["witness"]["graph"].startswith("2 1")
