"""Boundaries of the one move loop (strategy.opening and strategy.step) that
play_game, the verifier's replay and the worst-case search share."""

import dataclasses

import pytest

from domgame import (
    ResourceLimitError,
    dominator_greedy,
    gen_path,
    gen_star,
    make_staller_random,
    play_game,
    staller_worst_case,
    verify_transcript,
)
from domgame.verify import _replay
from oracles import make_scripted_staller


def test_k2_freezes_the_registry_at_the_opening():
    # no leaf path and no move dropping f by 11: the opening evaluation
    # runs straight into phase 3, before any move is made
    g = gen_path(2)
    t = play_game(g, dominator_greedy, make_staller_random(0), "D")
    moves = _replay(g, t)
    assert moves[-1][0].registry is not None
    assert moves[0][0].phase == 3
    end2 = {r.claim: r for r in verify_transcript(g, t)}["END2_STRUCT"]
    assert end2.status == "pass"


def test_staller_opening_that_ends_the_game():
    # Staller plays the centre of a star as move 0: no boundary is evaluated
    # after the last move, so there is no phase handoff
    g = gen_star(6)
    t = play_game(g, dominator_greedy, make_scripted_staller([0]), "S")
    assert [(r.index, r.mover, r.vertex, r.phase) for r in t.records] == [(0, "S", 0, 1)]
    assert (t.f_at_phase2_end, t.F_at_phase2_end) == (None, None)
    assert _replay(g, t)[-1][0].registry is None
    assert all(r.ok for r in verify_transcript(g, t))


def test_record_after_the_end_is_rejected():
    g = gen_path(5)
    t = play_game(g, dominator_greedy, make_staller_random(3), "D")
    last = t.records[-1]
    extra = dataclasses.replace(last, index=last.index + 1,
                                mover="S" if last.mover == "D" else "D")
    bad = dataclasses.replace(t, records=t.records + (extra,))
    with pytest.raises(ValueError, match="continues after the game ended"):
        _replay(g, bad)


def test_worst_case_checks_first_before_the_cap():
    with pytest.raises(ValueError, match="first must be"):
        staller_worst_case(gen_path(13), first="X")
    with pytest.raises(ResourceLimitError):
        staller_worst_case(gen_path(13), first="D")
