import dataclasses
import json
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from domgame import (
    CLAIM_IDS,
    DEFAULT_SOLVER_CAP,
    TRANSCRIPT_CHECKS,
    ConfigError,
    Graph,
    IllegalMoveError,
    builtin_spec,
    corpus_items,
    dominator_greedy,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_path,
    gen_random_tree,
    make_staller_random,
    parse_edge_list,
    philox_rng,
    play_game,
    run_corpus,
    solve_game,
    spec_from_json,
    staller_min_decrease,
    staller_worst_case,
    verify_bounds,
    verify_transcript,
    write_edge_list,
)
from domgame.cli import main as cli_main
from domgame.verify import FAMILIES, MAX_CORPUS_VERTICES, MAX_GRAPH_VERTICES, _replay, _states
from claim_cases import CASES, search_pool, smallest_failures
from test_local_delta import graphs
from test_residual import random_playout
from transcript_cases import (
    FOOTER_FIELDS,
    HEADER_FIELDS,
    RECORD_FIELDS,
    mutated,
    mutation_subjects,
    mutations,
)

ALL = set(CLAIM_IDS)


def by_claim(reports):
    return {r.claim: r for r in reports}


def lowest(mask):
    """The smallest vertex of a vertex mask, None for the empty one."""
    return (mask & -mask).bit_length() - 1 if mask else None


def test_p2_transcript_reports():
    g = gen_path(2)
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    rep = by_claim(verify_transcript(g, t))
    assert rep["PH1_MOVES"].status == "pass-vacuous"
    assert rep["AV1"].status == "pass-vacuous"
    assert rep["AV2"].status == "pass-vacuous"
    assert rep["AV3"].status == "pass"          # the single mop-up move, F drop 10
    assert rep["PH4_MOVES"].status == "pass-vacuous"
    assert rep["TOTAL_5N"].status == "pass"
    assert all(r.status != "fail" for r in rep.values())


def test_p4_random_seeds_ph1_passes():
    g = gen_path(4)
    for seed in range(12):
        t = play_game(g, dominator_greedy, make_staller_random(seed), "D")
        rep = by_claim(verify_transcript(g, t))
        assert rep["PH1_MOVES"].status == "pass"
        assert all(r.status != "fail" for r in rep.values())


def test_staller_start_premove_checked():
    g = gen_path(6)
    t = play_game(g, dominator_greedy, make_staller_random(1), "S")
    rep = by_claim(verify_transcript(g, t))
    assert t.records[0].decrease >= 6
    assert all(r.status != "fail" for r in rep.values())


def test_mutated_decrease_is_rejected_with_witness():
    g = gen_path(4)
    t = play_game(g, dominator_greedy, make_staller_random(0), "D")
    assert t.records[0].phase == 1 and t.records[0].mover == "D"
    forged = dataclasses.replace(t.records[0], decrease=t.records[0].decrease - 1)
    bad = dataclasses.replace(t, records=(forged,) + t.records[1:])
    rep = by_claim(verify_transcript(g, bad))
    assert rep["PH1_MOVES"].status == "fail"
    w = rep["PH1_MOVES"].witness
    assert w is not None
    assert w.move_index == forged.index
    assert w.transcript_prefix  # replayable
    assert "4 3" in w.graph_text.splitlines()[0]


def test_forged_phase_tag_is_rejected():
    g = gen_cycle(5)
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    victim = next(i for i, r in enumerate(t.records) if r.phase == 3)
    forged = dataclasses.replace(t.records[victim], phase=1, kind="f")
    bad = dataclasses.replace(t, records=t.records[:victim] + (forged,) + t.records[victim + 1:])
    rep = by_claim(verify_transcript(g, bad))
    assert rep["PH2_ST5_PAIR"].status == "fail"
    assert rep["PH2_ST5_PAIR"].witness is not None


def test_forged_snapshot_hash_is_rejected():
    g = gen_path(5)
    t = play_game(g, dominator_greedy, make_staller_random(2), "D")
    forged = dataclasses.replace(t.records[0], snapshot_hash="0" * 12)
    bad = dataclasses.replace(t, records=(forged,) + t.records[1:])
    assert any(r.status == "fail" for r in verify_transcript(g, bad))


def test_forged_phase_lengths_fail_total():
    g = gen_path(5)
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    bad = dataclasses.replace(t, phase_lengths=(t.total_moves, 0, 0, 0))
    rep = by_claim(verify_transcript(g, bad))
    assert rep["TOTAL_5N"].status == "fail"


def test_nongreedy_or_wrong_graph_is_input_error():
    g = gen_path(4)
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    with pytest.raises(ValueError):
        verify_transcript(gen_path(5), t)
    fake = dataclasses.replace(t, dominator_policy="random")
    with pytest.raises(ValueError):
        verify_transcript(g, fake)
    with pytest.raises(ValueError, match="does not belong"):
        verify_transcript(g, dataclasses.replace(t, m=t.m + 1))


@pytest.mark.parametrize("name", RECORD_FIELDS + FOOTER_FIELDS + HEADER_FIELDS)
def test_single_field_mutation_is_rejected(name):
    """A transcript with one field changed is an input error, or gets at
    least one FAIL report, and every FAIL carries a witness."""
    tried = 0
    for _, g, t in mutation_subjects():
        for label, bad in mutations(g, t):
            if label.split(".")[-1] != name:
                continue
            tried += 1
            try:
                reports = verify_transcript(g, bad)
            except ValueError:
                continue
            failing = [r for r in reports if r.status == "fail"]
            assert failing, label
            assert all(r.witness is not None for r in failing), label
    assert tried


@st.composite
def played_games(draw):
    """(graph, transcript): a random tree, G(n, p) or union of cycles C_k
    (k >= 4) with n <= 24, either start, against a random Staller, the
    min-decrease Staller or, for n <= 10, the worst-case Staller."""
    family = draw(st.sampled_from(("tree", "gnp", "cycles")))
    seed = draw(st.integers(0, 2**31))
    if family == "tree":
        g = gen_random_tree(draw(st.integers(2, 24)), seed)
    elif family == "gnp":
        g = gen_gnp_isolate_free(draw(st.integers(2, 24)),
                                 draw(st.sampled_from((0.15, 0.3, 0.5))), seed)
    else:
        lengths = [draw(st.integers(4, 24))]
        while 24 - sum(lengths) >= 4 and draw(st.booleans()):
            lengths.append(draw(st.integers(4, 24 - sum(lengths))))
        g = cycle_union(lengths)
    first = draw(st.sampled_from("DS"))
    staller = draw(st.sampled_from(("random", "min", "worst") if g.n <= 10 else ("random", "min")))
    if staller == "worst":
        return g, staller_worst_case(g, first=first)[1]
    policy = make_staller_random(seed) if staller == "random" else staller_min_decrease
    return g, play_game(g, dominator_greedy, policy, first)


@given(game=played_games(), data=st.data())
@settings(max_examples=200)
def test_replay_rebuilds_the_transcript_and_rejects_mutations(game, data):
    """The replay rebuilds a played transcript exactly, and one field
    mutated at a random record (by the rules of transcript_cases) is an
    input error or gets at least one FAIL, each with a witness."""
    from domgame.strategy import _transcript
    from domgame.verify import _replay

    g, t = game
    assert _transcript(g, t.first_player, t.dominator_policy, t.staller_policy, _replay(g, t)) == t
    name = data.draw(st.sampled_from(RECORD_FIELDS + FOOTER_FIELDS + HEADER_FIELDS))
    bad = mutated(g, t, name, data.draw(st.integers(0, t.total_moves - 1)))
    assume(bad is not None)
    try:
        reports = verify_transcript(g, bad)
    except ValueError:
        return
    failing = [r for r in reports if r.status == "fail"]
    assert failing
    assert all(r.witness is not None for r in failing)


@pytest.mark.parametrize("vertex", [1.0, "1", None])
def test_vertex_that_is_not_an_int_is_unplayable(vertex):
    """A recorded vertex, or one a policy returns, that is not an int is
    rejected as unplayable, not passed on to the bit arithmetic."""
    g = gen_path(5)
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    forged = dataclasses.replace(t.records[1], vertex=vertex)
    bad = dataclasses.replace(t, records=t.records[:1] + (forged,) + t.records[2:])
    with pytest.raises(ValueError, match="record 1: vertex .* is not playable"):
        verify_transcript(g, bad)

    def staller(ctx, state):
        return vertex

    with pytest.raises(IllegalMoveError, match="returned illegal vertex"):
        play_game(g, dominator_greedy, staller, "S")


def test_bool_vertex_is_unplayable():
    """True equals 1 and is an int subclass, but no vertex id: on P4 a
    transcript against the min-decrease Staller whose first record plays
    vertex 1 is rejected once that vertex reads True, and so is a policy
    returning True."""
    g = gen_path(4)
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    assert t.records[0].vertex == 1
    bad = dataclasses.replace(t, records=(dataclasses.replace(t.records[0], vertex=True),)
                              + t.records[1:])
    with pytest.raises(ValueError, match="record 0: vertex True is not playable"):
        verify_transcript(g, bad)

    def staller(ctx, state):
        return True

    with pytest.raises(IllegalMoveError, match="returned illegal vertex True"):
        play_game(g, dominator_greedy, staller, "S")


def test_claim_table_follows_transcript_checks():
    from domgame.verify import _CLAIMS

    assert tuple(c.id for c in _CLAIMS) == TRANSCRIPT_CHECKS


def test_truncated_transcript_is_input_error():
    g = gen_path(6)
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    assert t.total_moves >= 2
    bad = dataclasses.replace(t, records=t.records[:-1])
    with pytest.raises(ValueError):
        verify_transcript(g, bad)


def test_replay_states_walk():
    g = gen_path(4)
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    states = _states(_replay(g, t))
    assert len(states) == t.total_moves + 1
    assert states[0].f == 20 and states[-1].f == 0


def test_verify_bounds_examples():
    rep = by_claim(verify_bounds(gen_cycle(4)))
    assert rep["BOUND_5N8"].status == "pass"
    assert "gamma_g=2" in rep["BOUND_5N8"].detail
    assert rep["GAP_GG_GGP"].status == "pass"
    rep5 = by_claim(verify_bounds(gen_path(5)))
    assert rep5["BOUND_5N8"].status == "pass"
    assert "gamma_g=3" in rep5["BOUND_5N8"].detail  # tight: 3 == floor(25/8)


def test_exact_value_above_the_greedy_worst_case_fails():
    """The greedy is one Dominator strategy, so the Staller's best reply to
    it lasts at least gamma_g (Dominator starting) or gamma_g' (Staller
    starting): a shorter worst case, forged here, is a failure."""
    from domgame.verify import _bound_reports, _worst_cases

    g = gen_path(5)
    gv = solve_game(g)
    worst = _worst_cases(g, 12)
    assert all(r.ok for r in _bound_reports(g, DEFAULT_SOLVER_CAP, worst))
    line_d, line_s = worst
    forged = (line_d[:gv.gamma_g - 1], line_s[:gv.gamma_g_prime - 1])
    rep = by_claim(_bound_reports(g, DEFAULT_SOLVER_CAP, forged))
    assert rep["BOUND_5N8"].status == "fail"
    assert rep["BOUND_5N8"].detail == (
        f"gamma_g={gv.gamma_g} exceeds greedy worst-case length {gv.gamma_g - 1}")
    assert rep["BOUND_STALLER_START"].status == "fail"
    assert rep["BOUND_STALLER_START"].detail == (
        f"gamma_g'={gv.gamma_g_prime} exceeds greedy worst-case "
        f"Staller-start length {gv.gamma_g_prime - 1}")
    assert rep["BOUND_STALLER_START"].witness.graph_text == write_edge_list(g)


def test_verify_bounds_caps_flag_skip():
    g = gen_random_tree(14, 0)
    rep = by_claim(verify_bounds(g, solver_cap=10, worst_cap=10))
    assert rep["BOUND_5N8"].status == "skipped-exact"
    assert rep["GAP_GG_GGP"].status == "skipped-exact"
    # worst-case may run even when the exact solver cannot
    rep2 = by_claim(verify_bounds(g, solver_cap=10, worst_cap=14))
    assert rep2["BOUND_5N8"].status == "pass"
    assert "exact skipped" in rep2["BOUND_5N8"].detail


@pytest.mark.parametrize("caps, want", [
    ((10, 10), [("skipped-exact", "n=14 exceeds both caps"),
                ("skipped-exact", "n=14 exceeds both caps")]),
    ((10, 14), [("pass", "exact skipped (cap), worst=6 <= 8"),
                ("pass", "worst=7 <= 9")]),
    ((20, 10), [("pass", "gamma_g=6, worst-case skipped (cap) <= 8"),
                ("pass", "gamma_g'=7 <= 9")]),
    ((20, 14), [("pass", "gamma_g=6, worst=6 <= 8"),
                ("pass", "gamma_g'=7, worst=7 <= 9")]),
])
def test_length_bound_reports_per_cap(caps, want):
    """Both length bounds' status and detail, byte for byte, with the exact
    value, the worst-case search, both or neither within its cap: only
    BOUND_5N8 names the skipped side."""
    rep = by_claim(verify_bounds(gen_random_tree(14, 0), *caps))
    got = [(rep[c].status, rep[c].detail) for c in ("BOUND_5N8", "BOUND_STALLER_START")]
    assert got == want


def test_length_bound_failure_texts(monkeypatch):
    """The failure details of both length bounds when a forged worst case,
    or a forged exact value, exceeds the bound."""
    import types

    import domgame.verify as verify

    g = gen_random_tree(14, 0)
    line_d, line_s = worst = verify._worst_cases(g, 14)
    # the bounds read only the lines' lengths: forge lines of 9 and 10 moves
    rep = by_claim(verify._bound_reports(g, 10, ((line_d * 2)[:9], (line_s * 2)[:10])))
    assert rep["BOUND_5N8"].detail == "greedy worst-case length 9 > 8"
    assert rep["BOUND_STALLER_START"].detail == "greedy worst-case Staller-start length 10 > 9"
    monkeypatch.setattr(verify, "solve_game",
                        lambda g, cap: types.SimpleNamespace(gamma_g=9, gamma_g_prime=10))
    rep = by_claim(verify._bound_reports(g, 20, worst))
    assert rep["BOUND_5N8"].detail == "gamma_g=9 > 8"
    assert rep["BOUND_STALLER_START"].detail == "gamma_g'=10 > 9"
    assert all(rep[c].status == "fail" and rep[c].witness.graph_text == write_edge_list(g)
               for c in ("BOUND_5N8", "BOUND_STALLER_START"))


def test_smoke_corpus_passes_and_is_deterministic():
    spec = builtin_spec("smoke")
    report = run_corpus(spec)
    assert report.ok
    assert report.worst_ratio("D")[0] <= 5 / 8
    again = run_corpus(builtin_spec("smoke"))
    assert report.to_json() == again.to_json()
    csv = report.to_csv()
    assert len(csv.splitlines()) == len(report.graphs) + 1


def test_corpus_counts_show_vacuous_separately():
    spec = spec_from_json({"families": [{"name": "paths", "params": {"n_max": 2}}]})
    report = run_corpus(spec)
    counts = report.counts()
    # no game on a single edge ever reaches phase 2 or phase 4
    assert counts["AV2"] == {"pass-vacuous": 1}
    assert counts["PH4_MOVES"] == {"pass-vacuous": 1}
    assert counts["TOTAL_5N"] == {"pass": 1}


def test_empty_spec_is_empty_success():
    report = run_corpus(spec_from_json({}))
    assert report.ok and report.graphs == []


def test_bad_specs_raise_config_errors():
    with pytest.raises(ConfigError, match="unknown family name 'dodecahedra'"):
        spec_from_json({"families": [{"name": "dodecahedra", "params": {"n_max": 4}}]})
    with pytest.raises(ConfigError, match="unknown family name 'nope'"):
        spec_from_json({"families": [{"name": "nope", "params": {}}]})
    with pytest.raises(ConfigError):
        spec_from_json({"families": [], "checks": ["BOUND_5N8"]})
    with pytest.raises(ConfigError):
        spec_from_json({"families": [{"name": "paths", "params": {"n_max": 4}}],
                        "checks": ["NOT_A_CHECK"]})
    with pytest.raises(ConfigError):
        spec_from_json({"families": [{"name": "paths", "params": {"n_max": 4}}],
                        "caps": {"solver_n": 99}})
    with pytest.raises(ConfigError):
        builtin_spec("nope")
    paths = {"name": "paths", "params": {"n_max": 4}}
    for bad in ({"families": [paths], "caps": 5},
                {"families": [{**paths, "seeds": ["a"]}]},
                {"families": [{**paths, "seeds": [1.5]}]},
                {"families": [{"name": "trees", "params": {"n_max": 4}, "seeds": [1.5]}]},
                {"families": [paths], "checks": [["x"]]},
                # sizes, max_legs and caps are JSON integers, p a JSON number
                {"families": [{"name": "paths", "params": {"n_max": [3]}}]},
                {"families": [{"name": "gnp", "params": {"n_max": 4, "p": None}}]},
                {"families": [{"name": "paths", "params": {"n_max": 4.7}}]},
                {"families": [{"name": "paths", "params": {"n_min": True, "n_max": 4}}]},
                {"families": [{"name": "caterpillars", "params": {"spine_max": 2, "max_legs": "2"}}]},
                {"families": [paths], "caps": {"solver_n": 5.0}},
                # unknown keys at every level, and params the family does not read
                {"famlies": [paths]},
                {"families": [{**paths, "seed": [1]}]},
                {"families": [paths], "caps": {"worst": 3}},
                {"families": [{"name": "paths", "params": {"nmin": 2, "n_max": 4}}]},
                {"families": [{"name": "trees", "params": {"n_max": 4, "p": 0.5}}]},
                {"families": [{"name": "caterpillars", "params": {"n_max": 4}}]},
                # caps are non-negative
                {"families": [paths], "caps": {"solver_n": -1, "worst_case_n": -3}},
                {"families": [paths], "caps": {"worst_case_n": -1}}):
        with pytest.raises(ConfigError):
            spec_from_json(bad)
    # values no generator takes: a negative integer parameter, a seed past Philox's 128-bit key
    with pytest.raises(ConfigError, match="family 'caterpillars': 'max_legs' must be non-negative"):
        spec_from_json({"families": [{"name": "caterpillars",
                                      "params": {"spine_max": 3, "max_legs": -1}}]})
    with pytest.raises(ConfigError, match="family 'trees': 'seeds' must be below 2\\*\\*128"):
        spec_from_json({"families": [{"name": "trees", "params": {"n_max": 4}, "seeds": [2**200]}]})
    with pytest.raises(ConfigError, match="needs the parameter 'n_max'"):
        spec_from_json({"families": [{"name": "paths", "params": {"n_min": 2}}]})
    # a family that yields no graph is the one check that needs the graphs
    for bad in ({"families": [{"name": "paths", "params": {"n_min": 9, "n_max": 4}}]},
                {"families": [{"name": "trees", "params": {"n_max": 6}, "seeds": []}]},
                {"families": [{"name": "caterpillars", "params": {"spine_max": 3}, "seeds": []}]}):
        with pytest.raises(ConfigError, match="yields no graph"):
            corpus_items(spec_from_json(bad))
    assert len(corpus_items(spec_from_json({"families": [{**paths, "seeds": []}]}))) == 3
    # the largest Philox key still builds its graph
    top = {"name": "trees", "params": {"n_min": 4, "n_max": 4}, "seeds": [2**128 - 1]}
    assert len(corpus_items(spec_from_json({"families": [top]}))) == 1


def test_oversized_specs_are_refused_before_building():
    runaway = {"families": [{"name": "paths", "params": {"n_max": 2000}}], "checks": []}
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="family 'paths' would bring the corpus to 2000999 "):
        spec_from_json(runaway)
    assert time.perf_counter() - start < 1
    # a caterpillar counts spine * (1 + max_legs) vertices
    with pytest.raises(ConfigError, match="family 'caterpillars' would build a graph of 10002 "):
        spec_from_json({"families": [{"name": "caterpillars",
                                      "params": {"spine_min": 3334, "spine_max": 3334}}]})
    with pytest.raises(ConfigError, match="family 'all_labeled': 'n_max' must be at most 6"):
        spec_from_json({"families": [{"name": "all_labeled", "params": {"n_max": 7}}]})
    spec_from_json({"families": [{"name": "all_labeled", "params": {"n_max": 6}}]})
    # both limits are inclusive, and a family drawn per seed counts each seed
    top = {"name": "trees", "params": {"n_min": MAX_GRAPH_VERTICES, "n_max": MAX_GRAPH_VERTICES},
           "seeds": list(range(MAX_CORPUS_VERTICES // MAX_GRAPH_VERTICES))}
    spec_from_json({"families": [top]})
    with pytest.raises(ConfigError, match=f"family 'paths' would bring the corpus to "
                                          f"{MAX_CORPUS_VERTICES + 2} "):
        spec_from_json({"families": [top, {"name": "paths", "params": {"n_max": 2}}]})
    with pytest.raises(ConfigError, match="family 'gnp' would build a graph of 10001 "):
        spec_from_json({"families": [{"name": "gnp", "params": {"n_max": MAX_GRAPH_VERTICES + 1}}]})


@pytest.mark.parametrize("p, ok", [(0, False), (-0.5, False), (2, False), (float("nan"), False),
                                   (1, True)])
def test_gnp_probability_must_lie_in_0_1(p, ok, tmp_path):
    """spec_from_json and domgame gen gnp refuse a G(n, p) probability
    outside (0, 1] before any graph is built; p = 1 builds K_n."""
    spec = {"families": [{"name": "gnp", "params": {"n_min": 4, "n_max": 4, "p": p}}]}
    out = tmp_path / "g.g"
    if ok:
        (_, g, _), = corpus_items(spec_from_json(spec))
        assert g.edge_count == 6
        assert cli_main(["gen", "gnp", "4", str(p), str(out)]) == 0
        return
    with pytest.raises(ConfigError, match=r"family 'gnp': 'p' must be in \(0, 1\], got "):
        spec_from_json(spec)
    assert cli_main(["gen", "gnp", "4", str(p), str(out)]) == 2
    assert not out.exists()


def test_gnp_counts_its_vertex_pairs():
    """gnp draws once per vertex pair, so a graph on n vertices counts
    n + n(n - 1)/2 toward the corpus limit: one G(2000, p) is refused at
    once, one G(1413, p), 998,991 in all, still passes, and G(1414, p)
    does not."""
    def gnp(n_min, n_max, seeds=(0,)):
        return {"name": "gnp", "params": {"n_min": n_min, "n_max": n_max}, "seeds": list(seeds)}

    start = time.perf_counter()
    with pytest.raises(ConfigError, match="family 'gnp' would bring the corpus to 2001000 "):
        spec_from_json({"families": [gnp(2000, 2000)], "checks": []})
    assert time.perf_counter() - start < 1
    spec_from_json({"families": [gnp(1413, 1413)], "checks": []})
    with pytest.raises(ConfigError, match="to 1000405 "):  # 1414 + 1414 * 1413 / 2
        spec_from_json({"families": [gnp(1414, 1414)], "checks": []})
    # each seed counts, and the count adds to the other families'
    trees = {"name": "trees", "params": {"n_min": MAX_GRAPH_VERTICES, "n_max": MAX_GRAPH_VERTICES},
             "seeds": list(range(99))}
    want = 99 * MAX_GRAPH_VERTICES + 2 * sum(n + n * (n - 1) // 2 for n in range(3, 41))
    with pytest.raises(ConfigError, match=f"family 'gnp' would bring the corpus to {want} "):
        spec_from_json({"families": [trees, gnp(3, 40, (0, 1))]})


def test_corpus_families_generate():
    spec = spec_from_json({
        "families": [
            {"name": "trees", "params": {"n_min": 4, "n_max": 5}, "seeds": [0, 1]},
            {"name": "gnp", "params": {"n_min": 4, "n_max": 4, "p": 0.5}, "seeds": [3]},
            {"name": "caterpillars", "params": {"spine_min": 1, "spine_max": 3}, "seeds": [0]},
            {"name": "all_labeled", "params": {"n_min": 2, "n_max": 3}},
        ],
        "checks": ["bounds"],
    })
    items = corpus_items(spec)
    labels = [label for label, _, _ in items]
    assert "tree-4-s0" in labels and "tree-5-s1" in labels
    assert any(label.startswith("gnp-4") for label in labels)
    assert sum(1 for label in labels if label.startswith("all")) == 1 + 4
    report = run_corpus(spec)
    assert report.ok
    assert {r.claim for gr in report.graphs for r in gr.reports} <= {
        "BOUND_5N8", "BOUND_STALLER_START", "GAP_GG_GGP"}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_registry_family_builds_what_it_declares(name, tmp_path):
    # every declared parameter at its default, a required one at 4
    fam = FAMILIES[name]
    params = {k: 4 if default is None else default for k, (_, default) in fam.params.items()}
    spec = {"families": [{"name": name, "params": params, "seeds": [0, 1]}], "checks": []}
    items = corpus_items(spec_from_json(spec))
    labels = [label for label, _, _ in items]
    assert items and len(set(labels)) == len(labels)
    assert all(g.is_isolate_free() for _, g, _ in items)
    if fam.gen is None or fam.gen[1] not in (("n",), ("n", "p")):
        return
    gen_name, arg_names, _ = fam.gen
    out = tmp_path / "g.g"
    args = {"n": "5", "p": str(params.get("p"))}
    assert cli_main(["gen", gen_name, *(args[a] for a in arg_names), str(out), "--seed", "1"]) == 0
    one = {**spec, "families": [{"name": name, "params": {**params, "n_min": 5, "n_max": 5},
                                 "seeds": [1]}]}
    (_, want, _), = corpus_items(spec_from_json(one))
    assert parse_edge_list(out.read_text(encoding="utf-8")) == want


def test_caterpillar_label_names_one_graph():
    def graphs(spine_min):
        spec = spec_from_json({"families": [{"name": "caterpillars", "seeds": [0, 1],
                                             "params": {"spine_min": spine_min, "spine_max": 4}}],
                               "checks": []})
        return {label: g for label, g, _ in corpus_items(spec)}

    wide, narrow = graphs(1), graphs(4)
    assert list(narrow) == ["caterpillar-4-s0", "caterpillar-4-s1"]
    assert all(narrow[label] == wide[label] for label in narrow)


def test_caterpillar_is_audited_with_its_own_seed():
    def report(seeds):
        spec = spec_from_json({"families": [{"name": "caterpillars", "seeds": seeds,
                                             "params": {"spine_min": 4, "spine_max": 4}}]})
        graphs = {gr.label: gr.to_json_dict() for gr in run_corpus(spec).graphs}
        return graphs["caterpillar-4-s0"]

    assert report([0]) == report([0, 1])


def test_jobs_parallel_matches_serial():
    spec = spec_from_json({"families": [{"name": "paths", "params": {"n_max": 6}},
                                        {"name": "cycles", "params": {"n_max": 6}}]})
    serial = run_corpus(spec, jobs=1)
    parallel = run_corpus(spec, jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_jobs_are_clamped_to_cpu_count(monkeypatch):
    import itertools
    import multiprocessing
    import os

    sizes = []

    class SerialPool:
        """Records its size and maps in this process: no worker is forked."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, payloads):
            return list(itertools.starmap(fn, payloads))

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    spec = spec_from_json({"families": [{"name": "paths", "params": {"n_max": 5}}]})
    serial = run_corpus(spec, jobs=1)
    assert run_corpus(spec, jobs=3).to_json() == serial.to_json()
    assert run_corpus(spec, jobs=2).to_json() == serial.to_json()
    assert sizes == [2, 2]


def test_failure_reports_carry_witnesses_into_json():
    g = gen_path(4)
    t = play_game(g, dominator_greedy, make_staller_random(0), "D")
    forged = dataclasses.replace(t.records[0], decrease=5)
    bad = dataclasses.replace(t, records=(forged,) + t.records[1:])
    failing = [r for r in verify_transcript(g, bad) if r.status == "fail"]
    assert failing
    doc = failing[0].to_json_dict()
    assert doc["status"] == "fail" and "witness" in doc
    json.dumps(doc)  # serializable as-is


def test_one_worst_case_search_per_start(monkeypatch):
    import domgame.verify as verify

    calls = []
    search = verify._worst_line

    def counted(g, cap, first, positions=None):
        calls.append(first)
        return search(g, cap, first, positions=positions)

    monkeypatch.setattr(verify, "_worst_line", counted)
    spec = spec_from_json({"families": [{"name": "trees", "params": {"n_min": 9, "n_max": 9}}]})
    report = run_corpus(spec)
    assert report.ok and len(report.graphs) == 1
    assert sorted(calls) == ["D", "S"]
    # the worst-case witnesses are among the audited transcripts
    assert report.graphs[0].transcripts_checked == 2 + 2 + 2


@pytest.mark.parametrize("worst_case_n, witnesses", [(12, 2), (8, 0)])
def test_run_corpus_plays_each_game_once(monkeypatch, worst_case_n, witnesses):
    """run_corpus audits the random- and min-decrease-Staller games from
    the moves it played and the worst-case witnesses from the moves the
    search kept, so on C9 with three seeds it replays nothing, whether the
    worst-case cap admits the search or is below n."""
    import domgame.verify as verify

    replayed = []
    replay = verify._replay

    def counted(g, t):
        replayed.append(t.staller_policy)
        return replay(g, t)

    monkeypatch.setattr(verify, "_replay", counted)
    spec = spec_from_json({"families": [{"name": "cycles", "params": {"n_min": 9, "n_max": 9},
                                         "seeds": [0, 1, 2]}],
                           "caps": {"worst_case_n": worst_case_n}})
    report = run_corpus(spec)
    assert report.ok and len(report.graphs) == 1
    assert report.graphs[0].transcripts_checked == witnesses + 2 * 3 + 2
    assert replayed == []


def test_gap_only_spec_runs_no_worst_case_search(monkeypatch):
    """GAP_GG_GGP reads only the exact values, so a spec that asks for it
    alone runs no worst-case search, and its reports are those of "all"."""
    import domgame.verify as verify

    searches = []
    search = verify._worst_line

    def counted(g, cap, first, positions=None):
        searches.append(first)
        return search(g, cap, first, positions=positions)

    monkeypatch.setattr(verify, "_worst_line", counted)
    families = [{"name": "trees", "params": {"n_min": 8, "n_max": 12}}]
    gap = run_corpus(spec_from_json({"families": families, "checks": ["GAP_GG_GGP"]}))
    assert searches == []
    full = run_corpus(spec_from_json({"families": families, "checks": ["all"]}))
    assert searches == ["D", "S"] * 5
    assert [gr.reports for gr in gap.graphs] == [
        tuple(r for r in gr.reports if r.claim == "GAP_GG_GGP") for gr in full.graphs]


POSITION_FAMILIES = [
    {"name": "trees", "params": {"n_min": 8, "n_max": 12}},
    {"name": "gnp", "params": {"n_min": 10, "n_max": 12, "p": 0.25}},
    {"name": "gnp", "params": {"n_min": 10, "n_max": 12, "p": 0.5}},
    {"name": "caterpillars", "params": {"spine_min": 3, "spine_max": 4}},
    {"name": "cycles", "params": {"n_min": 10, "n_max": 10}},
    {"name": "cycles", "params": {"n_min": 12, "n_max": 12}},
]


def position_corpus(monkeypatch):
    """A spec whose run_corpus verifies, both starts, trees with n = 8..12,
    G(n, 0.25) and G(n, 0.5) with n = 10..12, caterpillars, C10, C12 and
    cycle unions that reach phases 3 and 4 (C5 + C6 + C7 past the search's
    cap, so only its games run). corpus_items is patched to hand out the
    same Graph objects on every call."""
    from domgame import verify

    spec = spec_from_json({"families": POSITION_FAMILIES})
    unions = ([4, 4], [5, 6], [4, 8], [4, 4, 4], [5, 6, 7])
    items = corpus_items(spec) + [(f"union-{k}", cycle_union(k), (0,)) for k in unions]
    monkeypatch.setattr(verify, "corpus_items", lambda spec: items)
    return spec


def lines_with_own_tables(monkeypatch, table):
    """Make run_corpus give each search and each game its own table of
    positions, table() (None: no table), instead of one per graph."""
    from domgame import strategy, verify

    monkeypatch.setattr(verify, "_worst_line", lambda g, cap, first, positions=None:
                        strategy._worst_line(g, cap, first, positions=table()))
    monkeypatch.setattr(verify, "_moves", lambda g, first, choose, positions=None:
                        strategy._moves(g, first, choose, positions=table()))


@pytest.mark.parametrize("planted", [False, True])
def test_lines_of_a_graph_share_positions_without_changing_a_report(monkeypatch, planted):
    """run_corpus hands the two searches and every game of a graph one
    table of positions (strategy.step). The report, witnesses included,
    is the one of a fresh table per line and of no table at all. Under the
    planted fault of PH2_LEAF's failing case the same failures come out."""
    from domgame import phases, strategy, verify

    spec = position_corpus(monkeypatch)
    if planted:
        capped = capped_F_decrease(phases.F_decrease)
        monkeypatch.setattr(phases, "F_decrease", capped)
        monkeypatch.setattr(verify, "F_decrease", capped)
    reached = set()
    advance = strategy.maybe_advance

    def recorded(ctx, s):
        out = advance(ctx, s)
        reached.add(out.phase)
        return out

    monkeypatch.setattr(strategy, "maybe_advance", recorded)
    shared = run_corpus(spec)
    assert {3, 4} <= reached
    if planted:
        assert "PH2_LEAF" in {r.claim for _, r in shared.failures}
    else:
        assert shared.ok
    for table in (dict, lambda: None):
        lines_with_own_tables(monkeypatch, table)
        assert run_corpus(spec).to_json() == shared.to_json()


def test_no_table_of_positions_outlives_its_graph(monkeypatch):
    """Two run_corpus calls on one spec, whose items are the same Graph
    objects, do the same work and give the same report: the table of
    positions lives for one graph's verification, and nothing that a
    later call could reuse is kept on the graph, in a module or across
    calls."""
    from domgame import phases, strategy

    spec = position_corpus(monkeypatch)
    calls = Counter()
    for module, name in ((strategy, "apply_move"), (strategy, "maybe_advance"),
                         (phases, "F_decrease")):
        def counted(*args, _f=getattr(module, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(module, name, counted)
    runs = []
    for _ in range(2):
        calls.clear()
        runs.append((run_corpus(spec).to_json(), dict(calls)))
    assert runs[0] == runs[1]
    assert all(runs[0][1].values())


def test_each_phase2_end_is_frozen_once_per_graph(monkeypatch):
    """Within one graph's verification, phases.freeze_registry runs at most
    once per position (dominated, red and light masks) and phase it is
    entered from, although the searches and games reach the same phase-2
    ends again and again: a repeat is a hit in the table of positions."""
    from domgame import phases, strategy, verify

    spec = position_corpus(monkeypatch)
    label, at, freezes = [], [], Counter()
    item, advance, freeze = verify._verify_item, strategy.maybe_advance, phases.freeze_registry

    def verified(*args):
        label[:] = [args[0]]
        return item(*args)

    def advancing(ctx, s):
        at.append((label[0], s.dominated_mask, s.red_mask, s.light_mask, ctx.phase))
        try:
            return advance(ctx, s)
        finally:
            at.pop()

    def freezing(s):
        freezes[at[-1]] += 1
        return freeze(s)

    monkeypatch.setattr(verify, "_verify_item", verified)
    monkeypatch.setattr(strategy, "maybe_advance", advancing)
    monkeypatch.setattr(phases, "freeze_registry", freezing)
    assert run_corpus(spec).ok
    assert freezes and max(freezes.values()) == 1


def test_played_games_audit_as_their_replays(monkeypatch):
    """run_corpus audits the games it plays from their moves, so the check
    that the replay made of them, that play is deterministic, is made here:
    on trees, G(n, p) and cycle unions that reach phases 3 and 4, both
    starts, against random and min-decrease Stallers, the replay of each
    audited game rebuilds its transcript record for record, and
    verify_transcript gives exactly the reports audited from its moves.
    Under the planted fault of PH2_LEAF's failing case, the failures and
    their witnesses agree as well."""
    from domgame import phases, verify

    graphs = [gen_random_tree(n, n) for n in (7, 12, 20, 33)]
    graphs += [gen_gnp_isolate_free(n, p, n) for n, p in ((9, 0.3), (14, 0.2), (24, 0.15))]
    graphs += [cycle_union([5, 6]), cycle_union([4, 7, 9]), cycle_union(list(range(5, 15)))]
    phases_reached = set()

    def audited(g):
        for t, reports in audits_as_replayed(g, (0, 1), None):
            phases_reached.update(r.phase for r in t.records)
            yield from reports

    assert all(r.ok for g in graphs for r in audited(g))
    assert phases_reached == {1, 2, 3, 4}
    capped = capped_F_decrease(phases.F_decrease)
    monkeypatch.setattr(phases, "F_decrease", capped)
    monkeypatch.setattr(verify, "F_decrease", capped)
    failed = [r for r in audited(gen_cycle(5)) if not r.ok]
    assert failed and all(r.claim == "PH2_LEAF" and r.witness.snapshot for r in failed)


def test_worst_case_witnesses_audit_as_their_replays(monkeypatch):
    """run_corpus audits the worst-case witnesses from the moves the search
    kept, so the check that the replay made of them, that the search plays
    deterministically, is made here: on random trees with n = 9..12,
    G(12, 0.25) and the cycle unions C5 + C6 and C4 + C8, which reach
    phases 3 and 4, both starts, the replay of each witness rebuilds it
    record for record, and verify_transcript gives exactly the reports
    audited from the search's moves. Under the planted fault of PH2_LEAF's
    failing case, the failures and their witnesses agree as well."""
    from domgame import phases, verify
    from domgame.verify import _worst_cases

    graphs = [gen_random_tree(n, n) for n in range(9, 13)]
    graphs += [gen_gnp_isolate_free(12, 0.25, 12), cycle_union([5, 6]), cycle_union([4, 8])]
    phases_reached, starts = set(), []

    def audited(g):
        for t, reports in audits_as_replayed(g, (), _worst_cases(g, 12)):
            if t.staller_policy == "worst_case":
                phases_reached.update(r.phase for r in t.records)
                starts.append(t.first_player)
                yield from reports

    assert all(r.ok for g in graphs for r in audited(g))
    assert phases_reached == {1, 2, 3, 4}
    assert starts == ["D", "S"] * len(graphs)
    capped = capped_F_decrease(phases.F_decrease)
    monkeypatch.setattr(phases, "F_decrease", capped)
    monkeypatch.setattr(verify, "F_decrease", capped)
    failed = [r for r in audited(gen_cycle(5)) if not r.ok]
    assert failed and all(r.claim == "PH2_LEAF" and r.witness.snapshot for r in failed)


def audits_as_replayed(g, seeds, worst):
    """verify._audits(g, seeds, worst), each game checked first: the replay
    of its transcript rebuilds it record for record, and verify_transcript
    gives exactly the reports audited from its moves."""
    from domgame.strategy import _transcript
    from domgame.verify import _audits, _replay

    for t, reports in _audits(g, seeds, worst):
        rebuilt = _transcript(g, t.first_player, t.dominator_policy, t.staller_policy, _replay(g, t))
        assert rebuilt == t
        assert verify_transcript(g, t) == reports
        yield t, reports


def capped_F_decrease(F_decrease):
    """F_decrease that reports at most 10."""
    return lambda s, reg, v: min(F_decrease(s, reg, v), 10)


def cycle_union(lengths):
    edges, off = [], 0
    for k in lengths:
        edges.extend((off + i, off + (i + 1) % k) for i in range(k))
        off += k
    return Graph.from_edges(off, edges)


def test_ph2_leaf_verdict_equals_max_F_decrease_scan():
    """PH2_LEAF tries the played move before scanning. Its verdict must
    equal the full scan's at every state that meets the precondition, and
    also at the other phase-3/4 states, where the scan can come out false
    (a correct game never fails the claim itself). At each of those states
    the blue leaf the precondition names is the definition's
    (oracles.nonspecial_blue_leaf)."""
    from oracles import colors, max_F_decrease, nonspecial_blue_leaf, state_from_colors
    from domgame.verify import _nonspecial_blue_leaves, _ph2_leaf_holds, _replay, _Replay, _states

    graphs = [gen_cycle(n) for n in range(4, 25)]
    rng = philox_rng(5)
    for _ in range(40):
        graphs.append(cycle_union([int(k) for k in rng.integers(4, 11, size=int(rng.integers(2, 5)))]))
    seen = set()
    for i, g in enumerate(graphs):
        for staller in (staller_min_decrease, make_staller_random(i)):
            t = play_game(g, dominator_greedy, staller, "D")
            moves = _replay(g, t)
            rep = _Replay(g, t, t, _states(moves), moves[-1][0].registry)
            for k, m in enumerate(rep.replayed.records):
                if m.phase < 3:
                    continue
                fresh = state_from_colors(g, colors(rep.states[k]))
                want = max_F_decrease(fresh, rep.registry) >= 11
                assert _ph2_leaf_holds(rep, k) == want
                leaf = lowest(_nonspecial_blue_leaves(rep.states[k]))
                assert leaf == nonspecial_blue_leaf(fresh)
                seen.add((leaf is not None, m.decrease >= 11, want))
    # the played move decides, the scan decides either way, and both occur
    # where the precondition holds
    assert {(True, True, True), (True, False, True), (False, False, False)} <= seen


def test_end3_struct_fails_by_name(monkeypatch):
    """With phase 3 cut short (phase3_active always false), phase 4 starts
    where phase 2 ends, and END3_STRUCT must name the first clause that
    breaks there. Each case is the smallest found for its note: the
    Dominator-first games on C4 and P2, and the spider with legs 0-1-4,
    0-2-3 and 0-5 where Staller opens at the leaf 5, leaving the light
    blue 0 with the white neighbors 1 and 2. A search over every Staller
    line on every labeled graph with n <= 6, and on random trees and
    G(n, p) with n = 7, 8, found no "has k blue neighbors" note."""
    from oracles import make_scripted_staller

    from domgame import phases

    def end3(g, first, script):
        staller = make_scripted_staller(script) if script else staller_min_decrease
        return by_claim(verify_transcript(g, play_game(g, dominator_greedy, staller, first)))["END3_STRUCT"]

    spider = Graph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 4), (2, 3)])
    cases = [
        (gen_cycle(4), "D", (), "X-cycle 0 is closed, not finished, when phase 4 starts"),
        (gen_path(2), "D", (), "white vertex 0 still has 1 white neighbors"),
        (spider, "S", (5, 3), "blue vertex 0 still has 2 white neighbors"),
    ]
    assert all(end3(g, first, script).ok for g, first, script, _ in cases)
    monkeypatch.setattr(phases, "phase3_active", lambda s, reg: False)
    for g, first, script, note in cases:
        report = end3(g, first, script)
        assert (report.status, report.detail) == ("fail", note)
    # the C4 game's phase 4 then starts with a move that leaves its component non-red
    c4 = gen_cycle(4)
    ph4 = by_claim(verify_transcript(c4, play_game(c4, dominator_greedy, staller_min_decrease, "D")))
    assert (ph4["PH4_MOVES"].status, ph4["PH4_MOVES"].detail) == (
        "fail", "move 1 left vertex 1 of its component non-red")


def test_structural_claims_fail_by_name_under_an_unchecked_freeze(monkeypatch):
    """With phases 1 and 2 planted inactive and the registry frozen
    without its phase-2 end check, the Dominator-first game on the star
    K1,3 reaches the handoff on the all-white opening state, where the
    center has 3 white neighbors and every leaf hangs on a white support.
    END2_STRUCT, LATER2 and LIGHTBLUE_STRUCT must each name it at state 0,
    before any move."""
    from domgame import gen_star, phases
    from domgame.phases import XCycleRegistry

    g = gen_star(4)
    assert all(r.ok for r in verify_transcript(
        g, play_game(g, dominator_greedy, staller_min_decrease, "D")))
    monkeypatch.setattr(phases, "phase1_active", lambda s: False)
    monkeypatch.setattr(phases, "phase2_active", lambda s: False)
    monkeypatch.setattr(phases, "freeze_registry", lambda s: XCycleRegistry(phases._phase2_end(s)[1]))
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    reports = by_claim(verify_transcript(g, t))
    start = _states(_replay(g, t))[0].snapshot()
    for claim, note in (
            ("END2_STRUCT", "white vertex 0 has 3 white neighbors"),
            ("LATER2", "white vertex 0 has 3 white neighbors"),
            ("LIGHTBLUE_STRUCT", "white leaf 1: support 0 is WHITE and some 3-path "
                                 "through it lacks a light blue or red vertex")):
        report = reports[claim]
        assert (report.status, report.detail) == ("fail", note)
        w = report.witness
        assert (w.move_index, w.snapshot, w.transcript_prefix) == (None, start, ())


@pytest.mark.parametrize("claim", ["AV4", "XCYCLE_DROP", "PH2_LEAF"])
def test_claim_fails_by_name_under_a_planted_fault(claim, monkeypatch):
    """No line of play found breaks AV4, XCYCLE_DROP or PH2_LEAF
    (verify._CLAIMS), so each is broken by a fault planted in the engine,
    on the smallest game found by a search over every Staller line on
    paths, cycles and stars with n <= 8, every labeled graph with n <= 5
    and random trees with n = 6, 7. Without the fault the game holds every
    claim. With it, the claim names the fault, both where verify_transcript
    replays the game and where run_corpus audits the moves it played:
    - AV4: a WB- pair discounted as a WB+, so a phase-4 move on P7 drops F
      by 7 (and PH4_MOVES fails with it);
    - XCYCLE_DROP: every X-cycle member frozen as a cycle of its own, so
      the Staller's move on C5 closes two of them;
    - PH2_LEAF: F_decrease capped at 10, the value it is bound to in
      phases and in verify, so no move on C5 seems to drop F by 11."""
    from oracles import make_scripted_staller

    from domgame import phases, verify
    from domgame.phases import XCycleRegistry
    from domgame.residual import vertices_of
    from domgame.strategy import _chooser, _moves, _transcript

    discount, freeze = phases._discount, phases.freeze_registry

    def any_pair_discounted(piece, dom, light):
        return 1 if piece.bit_count() == 2 else discount(piece, dom, light)

    def members_frozen_apart(s):
        return XCycleRegistry(tuple(1 << v for cycle in freeze(s).cycles for v in vertices_of(cycle)))

    capped = capped_F_decrease(phases.F_decrease)
    g, first, script, faults, note = {
        "AV4": (gen_path(7), "S", (3, 4), [(phases, "_discount", any_pair_discounted)],
                "phase-4 total decrease 7 < 8 over 1 moves"),
        "XCYCLE_DROP": (gen_cycle(5), "D", (2,), [(phases, "freeze_registry", members_frozen_apart)],
                        "move 2 closed 2 open X-cycles, bound 1"),
        "PH2_LEAF": (gen_cycle(5), "D", (1,), [(phases, "F_decrease", capped),
                                               (verify, "F_decrease", capped)],
                     "blue leaf 1 in a non-special component but no move drops F by 11"),
    }[claim]

    def reports():
        moves = list(_moves(g, first, _chooser(dominator_greedy, make_scripted_staller(script))))
        t = _transcript(g, first, "greedy", "scripted", moves)
        return [by_claim(verify_transcript(g, t)), by_claim(verify._audit(moves, t, t))]

    assert all(r.ok for audit in reports() for r in audit.values())
    for module, name, fault in faults:
        monkeypatch.setattr(module, name, fault)
    for audit in reports():
        assert (audit[claim].status, audit[claim].detail) == ("fail", note)


@pytest.mark.parametrize("claim", sorted(CASES))
def test_claim_fails_by_name(claim):
    """The smallest game found that breaks the claim reports it failed,
    with a witness of the graph, the moves and the state where it broke."""
    case = CASES[claim]
    g, t = case.graph, case.transcript()
    report = by_claim(verify_transcript(g, t))[claim]
    assert (report.status, report.detail) == ("fail", case.note)
    w = report.witness
    k = len(w.transcript_prefix)
    assert (w.graph_text, w.note) == (write_edge_list(g), case.note)
    assert w.transcript_prefix == tuple(r.to_json_dict() for r in t.records[:k])
    assert w.snapshot == _states(_replay(g, t))[k].snapshot()


def test_forged_dominator_search_finds_the_pinned_cases():
    found = smallest_failures(search_pool())
    assert {claim: found.get(claim) for claim in CASES} == CASES


def claim_outcomes(reports):
    """Each claim's status and, for a failure, the index of the move and
    the length of the prefix its witness names; the notes and snapshots
    name vertices and are left out."""
    return [(r.claim, r.status, r.witness and (r.witness.move_index, len(r.witness.transcript_prefix)))
            for r in reports]


def test_relabeling_leaves_claim_statuses_and_failing_moves_alone():
    """A metamorphic relation, where no oracle reaches: the forged
    Dominator's line (p = 0.5) against a random Staller, mapped through a
    seeded relabeling and replayed on the relabeled graph, audits to the
    same status for each claim and the same failing move. The mapped line
    is still audited as a greedy line, since the verifier does not audit
    tie-breaks. Trees and G(n, 0.3) with n = 8..16 and unions of three
    cycles with 15-20 vertices, both starts."""
    from claim_cases import forged_dominator
    from oracles import make_scripted_staller

    graphs = [g for n in range(8, 17) for g in (gen_random_tree(n, n), gen_gnp_isolate_free(n, 0.3, n))]
    rng = philox_rng(20)
    for n in range(15, 21):
        a = int(rng.integers(4, n - 7))
        b = int(rng.integers(4, n - a - 3))
        graphs.append(cycle_union([a, b, n - a - b]))
    failing = games = 0
    for i, g in enumerate(graphs):
        perm = [int(v) for v in philox_rng(i).permutation(g.n)]
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        for first in "DS":
            for seed in range(20):
                t = play_game(g, forged_dominator(seed, 0.5), make_staller_random(seed), first)
                line = make_scripted_staller([perm[r.vertex] for r in t.records], t.dominator_policy)
                outcomes = claim_outcomes(verify_transcript(g, t))
                assert claim_outcomes(verify_transcript(h, play_game(h, line, line, first))) == outcomes
                games += 1
                failing += any(status == "fail" for _, status, _ in outcomes)
    assert 0 < failing < games


def end3_vertex_note(s):
    """_end3_note at s under a registry with no X-cycle: its vertex clauses."""
    from types import SimpleNamespace

    from domgame.phases import XCycleRegistry
    from domgame.verify import _end3_note

    return _end3_note(SimpleNamespace(states=[s], registry=XCycleRegistry(())), 0)


@given(drawn=graphs(30, 30), seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_end3_vertex_clauses_leave_only_pairs_and_bwb(drawn, seed):
    """Wherever END3's vertex clauses hold, at any state of a random game
    with random shades, every component is a WB+, WB- or BWB, by
    components_bfs: the check on the component kinds that END3 dropped
    could not fire."""
    from oracles import components_bfs

    _, g, _ = drawn
    for s in random_playout(g, seed)[0]:
        if end3_vertex_note(s) is None:
            assert {kind for kind, _ in components_bfs(s)} <= {"WB+", "WB-", "BWB"}


@given(drawn=graphs(30, 30), seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_nonspecial_blue_leaf_matches_its_definition(drawn, seed):
    """At every state of a random game with random shades, the blue leaf
    PH2_LEAF names, decided locally, is the one its definition gives on
    components_bfs (oracles.nonspecial_blue_leaf)."""
    from oracles import nonspecial_blue_leaf

    from domgame.verify import _nonspecial_blue_leaves

    _, g, _ = drawn
    for s in random_playout(g, seed)[0]:
        assert lowest(_nonspecial_blue_leaves(s)) == nonspecial_blue_leaf(s)


@pytest.mark.parametrize("text, want", [
    ("0 DB\n1 W", None),  # order 2
    ("0 DB\n1 W\n2 LB", None),  # BWB
    ("0 W\n1 W\n2 DB", 2),  # W-W-B
    ("0 DB\n1 W\n2 DB\n3 W", 0),  # 2 has a second white neighbor, so C(0) has order 4
])
def test_nonspecial_blue_leaf_snapshots(text, want):
    from domgame import parse_snapshot
    from domgame.verify import _nonspecial_blue_leaves

    g = gen_path(len(text.splitlines()))
    assert lowest(_nonspecial_blue_leaves(parse_snapshot(g, text))) == want


def recolored(s, changes):
    """s with each (vertex, color) of changes set, the color white, light
    blue or dark blue whatever the vertex had, and red recomputed: a
    dominated vertex is red exactly when its closed neighborhood is."""
    from domgame.residual import Color, ResidualState

    dom, light = s.dominated_mask, s.light_mask
    for v, color in changes:
        bit = 1 << v
        dom = dom | bit if color else dom & ~bit
        light = light | bit if color == Color.LIGHT_BLUE else light & ~bit
    red = sum(1 << v for v, closed in enumerate(s.graph.closed_masks) if closed & ~dom == 0)
    return ResidualState(s.graph, dom, red, light & ~red)


def state_pairs(g, seed):
    """(s1, s2) pairs: each state s1 of a random game with random shades on
    g, and s1 with one to four vertices within distance 2 of a random
    vertex recolored, forward or back, white drawn twice as often as each
    blue shade; three pairs per state."""
    from domgame.residual import Color, _neighborhood, vertices_of

    rng = philox_rng(seed)
    colors = (Color.WHITE, Color.WHITE, Color.LIGHT_BLUE, Color.DARK_BLUE)
    for s1 in random_playout(g, seed)[0]:
        for _ in range(3):
            near = vertices_of(_neighborhood(g.closed_masks, g.closed_masks[int(rng.integers(0, g.n))]))
            yield s1, recolored(s1, [(near[int(rng.integers(0, len(near)))], colors[int(rng.integers(0, 4))])
                                     for _ in range(int(rng.integers(1, 5)))])


@pytest.mark.parametrize("claim", ["LATER2", "LIGHTBLUE_STRUCT", "PH2_LEAF"])
def test_delta_checks_equal_full_checks(claim):
    """The audit checks LATER2 and LIGHTBLUE_STRUCT only within distance 2
    of D, the vertices recolored since the claim's last site, once they
    held, and decides PH2_LEAF's blue leaves again only within distance 3
    of D (verify._RADIUS). On pairs of valid states of trees, G(n, p),
    cycle unions and decorated cycles with n <= 30 where the claim holds
    on the first, the ball check on the second equals the full one, note
    or None; the carried leaves equal the full mask on every pair. The
    pairs must include second states where the claim fails or the leaves
    change."""
    from domgame.verify import (
        _RADIUS,
        _delta_balls,
        _later2_violation,
        _lightblue_violation,
        _nonspecial_blue_leaves,
    )

    check = {"LATER2": _later2_violation, "LIGHTBLUE_STRUCT": _lightblue_violation,
             "PH2_LEAF": _nonspecial_blue_leaves}[claim]  # PH2_LEAF's: its blue leaves
    radius = _RADIUS[claim]
    seen = 0

    @given(drawn=graphs(30, 30), seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def pairs_check(drawn, seed):
        nonlocal seen
        for s1, s2 in state_pairs(drawn[1], seed):
            before, ball, full = check(s1), _delta_balls(s1, s2, radius)[radius], check(s2)
            if claim == "PH2_LEAF":
                assert before & ~ball | check(s2, ball) == full
                seen += full != before
            elif before is None:
                assert check(s2, ball) == full
                seen += full is not None

    pairs_check()
    assert seen


def test_later2_and_lightblue_survive_every_move():
    """LATER2 and LIGHTBLUE_STRUCT cannot newly fail (verify._CLAIMS): at
    every state of a random game with random shades where one holds,
    every legal move in either shade keeps it."""
    from domgame.residual import BLUE_SHADES, apply_move, legal_moves
    from domgame.verify import _later2_violation, _lightblue_violation

    kept = dict.fromkeys(("LATER2", "LIGHTBLUE_STRUCT"), 0)

    @given(drawn=graphs(30, 30), seed=st.integers(0, 2**31))
    @settings(max_examples=150, deadline=None)
    def check(drawn, seed):
        for s in random_playout(drawn[1], seed)[0]:
            for claim, note in (("LATER2", _later2_violation), ("LIGHTBLUE_STRUCT", _lightblue_violation)):
                if note(s) is None:
                    for v in legal_moves(s):
                        for shade in BLUE_SHADES:
                            assert note(apply_move(s, v, shade)) is None, (claim, s.snapshot(), v)
                            kept[claim] += 1

    check()
    assert all(kept.values()), kept


def test_phase3_audit_reads_white_degrees_near_the_moves(monkeypatch):
    """LATER2 and PH2_LEAF's blue leaves are checked by delta, so the audit
    of a game on C5..C14 x5 (n = 475, 180 phase-3 moves) asks for 4,126
    white degrees. A full check at every state asked for 96,807."""
    from domgame import phases, verify
    from domgame.residual import white_degree

    g = cycle_union(list(range(5, 15)) * 5)
    t = play_game(g, dominator_greedy, make_staller_random(7), "D")
    assert t.phase_lengths == (0, 0, 180, 6)
    calls = 0

    def counted(s, v):
        nonlocal calls
        calls += 1
        return white_degree(s, v)

    monkeypatch.setattr(verify, "white_degree", counted)
    monkeypatch.setattr(phases, "white_degree", counted)
    assert all(r.ok for r in verify_transcript(g, t))
    assert calls <= 6000
