"""Differential tests of the worst-case Staller search against the search
that branches on every Staller move (oracles.staller_worst_case_unmerged):
merging the moves of one node that lead to equal colors must change
neither the length nor the witness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgame import (
    enumerate_labeled_graphs,
    gen_gnp_isolate_free,
    gen_random_tree,
    staller_worst_case,
)
from oracles import staller_worst_case_unmerged


def assert_same_search(g):
    for first in ("D", "S"):
        length, witness = staller_worst_case(g, first=first)
        want_length, want_witness = staller_worst_case_unmerged(g, first)
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
