"""Fixed transcripts and their single-field mutations, shared by the
golden comparison of verifier reports and the mutation test.

    PYTHONPATH=src python tests/transcript_cases.py

rewrites tests/golden/verify_reports.json from the current verifier.
"""

import dataclasses
import json
from pathlib import Path

from domgame import (
    dominator_greedy,
    gen_cycle,
    make_staller_random,
    parse_edge_list,
    play_game,
    replay_states,
    staller_min_decrease,
    staller_worst_case,
    verify_transcript,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = GOLDEN / "verify_reports.json"

RECORD_FIELDS = ("index", "mover", "vertex", "phase", "kind", "decrease", "snapshot_hash")
FOOTER_FIELDS = ("phase_lengths", "f_at_phase2_end", "F_at_phase2_end")
HEADER_FIELDS = ("n", "m", "graph_hash", "first_player", "dominator_policy")


def golden_graph(name: str):
    return parse_edge_list((GOLDEN / f"{name}.g").read_text(encoding="utf-8"))


def played_transcripts():
    """(label, graph, transcript) for each golden graph and start, against
    the min-decrease Staller, a random Staller and, for n <= 12, the
    worst-case Staller."""
    out = []
    for name in ("tree30", "cycles24", "gnp10", "cycles475"):
        g = golden_graph(name)
        for first in "DS":
            out.append((f"{name}/{first}/min", g,
                        play_game(g, dominator_greedy, staller_min_decrease, first)))
            out.append((f"{name}/{first}/random0", g,
                        play_game(g, dominator_greedy, make_staller_random(0), first)))
            if g.n <= 12:
                out.append((f"{name}/{first}/worst", g, staller_worst_case(g, 12, first)[1]))
    return out


def mutation_subjects():
    """C24 with Dominator starting reaches phase 3; the golden tree with
    n = 30 and Staller starting runs through phases 1, 2 and 4."""
    c24 = gen_cycle(24)
    tree = golden_graph("tree30")
    return [("C24/D/min", c24, play_game(c24, dominator_greedy, staller_min_decrease, "D")),
            ("tree30/S/random5", tree,
             play_game(tree, dominator_greedy, make_staller_random(5), "S"))]


def _other_vertex(g, t, pos):
    """A playable vertex at record pos whose newly dominated set differs
    from the played one's, or None. A swap that dominates the same new
    vertices gives an equivalent, valid transcript."""
    state = replay_states(g, t)[pos]
    played = t.records[pos].vertex
    new = g.closed_masks[played] & ~state.dominated_mask
    for v in range(g.n):
        if not state.red_mask >> v & 1 and g.closed_masks[v] & ~state.dominated_mask != new:
            return v
    return None


def _mutated_value(field, value):
    if field == "mover":
        return "S" if value == "D" else "D"
    if field == "phase":
        return value % 4 + 1
    if field == "kind":
        return "F" if value == "f" else "f"
    if field == "snapshot_hash":
        return value[::-1]
    if field == "phase_lengths":
        return value[1:] + value[:1] if len(set(value)) > 1 else (value[0] + 1,) + value[1:]
    if field == "first_player":
        return "S" if value == "D" else "D"
    if field in ("graph_hash", "dominator_policy"):
        return "x" + value
    return 0 if value is None else value + 1


def mutated(g, t, name, pos=None):
    """t with the field `name` changed, of record pos for a record field;
    None for a vertex when no other playable vertex changes the play."""
    if name not in RECORD_FIELDS:
        return dataclasses.replace(t, **{name: _mutated_value(name, getattr(t, name))})
    r = t.records[pos]
    if name == "vertex":
        value = _other_vertex(g, t, pos)
        if value is None:
            return None
    else:
        value = _mutated_value(name, getattr(r, name))
    forged = dataclasses.replace(r, **{name: value})
    return dataclasses.replace(t, records=t.records[:pos] + (forged,) + t.records[pos + 1:])


def mutations(g, t):
    """(label, transcript) with exactly one field changed. Record fields are
    mutated at the first record of each phase and at the last record."""
    out = []
    positions = sorted({next(i for i, r in enumerate(t.records) if r.phase == p)
                        for p in {r.phase for r in t.records}} | {len(t.records) - 1})
    for pos in positions:
        for name in RECORD_FIELDS:
            bad = mutated(g, t, name, pos)
            if bad is not None:
                out.append((f"record{pos}.{name}", bad))
    for name in FOOTER_FIELDS + HEADER_FIELDS:
        out.append((name, mutated(g, t, name)))
    return out


def report_cases():
    """Label -> report JSON for every played transcript and every mutation
    the verifier answers with reports rather than a ValueError."""
    cases = {label: [r.to_json_dict() for r in verify_transcript(g, t)]
             for label, g, t in played_transcripts()}
    for subject, g, t in mutation_subjects():
        for label, bad in mutations(g, t):
            try:
                reports = verify_transcript(g, bad)
            except ValueError:
                continue
            cases[f"{subject}/{label}"] = [r.to_json_dict() for r in reports]
    return cases


def dumps(cases) -> str:
    return json.dumps(cases, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    REPORTS.write_text(dumps(report_cases()), encoding="utf-8")
