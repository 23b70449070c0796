"""Differential tests of the worst-case Staller search against two
oracles: the search that branches on every Staller move
(oracles.staller_worst_case_unmerged), so merging the moves of one node
that lead to equal colors must change neither the length nor the witness;
and the walk over every Staller line with no cutoff and no merge
(oracles.staller_worst_case_all_lines), which checks the cutoff itself.
A last test pins the phase-2 end audit on a child the cutoff prunes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgame import (
    ClaimViolationError,
    enumerate_labeled_graphs,
    gen_gnp_isolate_free,
    gen_path,
    gen_random_tree,
    staller_worst_case,
)
from domgame import phases
from oracles import staller_worst_case_all_lines, staller_worst_case_unmerged


def assert_same_search(g, oracle=staller_worst_case_unmerged):
    for first in ("D", "S"):
        length, witness = staller_worst_case(g, first=first)
        want_length, want_witness = oracle(g, first)
        assert (length, witness.to_json()) == (want_length, want_witness.to_json())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_merged_search_matches_unmerged_on_all_labeled_graphs(n):
    for g in enumerate_labeled_graphs(n):
        assert_same_search(g)


@given(n=st.integers(2, 10), seed=st.integers(0, 2**31))
@settings(max_examples=100)
def test_merged_search_matches_unmerged_on_trees(n, seed):
    assert_same_search(gen_random_tree(n, seed))


@given(n=st.integers(2, 10), p=st.sampled_from((0.2, 0.35, 0.5)),
       seed=st.integers(0, 2**31))
@settings(max_examples=100)
def test_merged_search_matches_unmerged_on_gnp(n, p, seed):
    assert_same_search(gen_gnp_isolate_free(n, p, seed))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_search_matches_every_line_on_all_labeled_graphs(n):
    for g in enumerate_labeled_graphs(n):
        assert_same_search(g, staller_worst_case_all_lines)


@given(n=st.integers(2, 8), seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_search_matches_every_line_on_trees(n, seed):
    assert_same_search(gen_random_tree(n, seed), staller_worst_case_all_lines)


@given(n=st.integers(2, 8), p=st.sampled_from((0.2, 0.35, 0.5)),
       seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_search_matches_every_line_on_gnp(n, p, seed):
    assert_same_search(gen_gnp_isolate_free(n, p, seed), staller_worst_case_all_lines)


def test_cut_child_keeps_the_phase2_end_audit(monkeypatch):
    """On P3 with Staller first, the line 0 then the greedy's move lasts 2
    moves, and Staller's opening move on vertex 2 leaves the leaf 0 white
    next to the light vertex 1: phase 2 ends there (f = 9), but a line
    through it can be no longer than 1 + |{0}| = 2, so the search cuts
    that child. A planted violation on that state must still raise, as it
    would if every child were played."""
    audit = phases._phase2_end
    planted = 0b110  # the dominated set after vertex 2

    def flagged(s):
        if s.graph.n == 3 and s.dominated_mask == planted:
            return "planted violation", ()
        return audit(s)

    monkeypatch.setattr(phases, "_phase2_end", flagged)
    with pytest.raises(ClaimViolationError, match="planted violation"):
        staller_worst_case(gen_path(3), first="S")
