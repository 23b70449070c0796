"""Command-line front end.

Subcommands: ``gen`` writes corpus graphs, ``solve`` prints exact game
values, ``simulate`` plays policy games, ``verify`` runs a verification
corpus. Exit codes: 0 success, 1 claim/bound failure, 2 usage or resource
error. All randomness flows from explicit --seed flags; DOMGAME_CAP may
lower (never raise) the solver and worst-case caps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ClaimViolationError, ConfigError, DomGameError
from .graph import parse_edge_list, write_edge_list
from .solver import DEFAULT_SOLVER_CAP, solve_game
from .strategy import (
    DEFAULT_WORST_CASE_CAP,
    dominator_greedy,
    make_staller_random,
    play_game,
    staller_min_decrease,
    staller_worst_case,
)
from .verify import (
    FAMILIES,
    MAX_GRAPH_VERTICES,
    SKIPPED,
    Caps,
    builtin_spec,
    check_size,
    replay_states,
    run_corpus,
    spec_from_json,
)


def _env_cap(value: int) -> int:
    raw = os.environ.get("DOMGAME_CAP")
    if raw is None:
        return value
    try:
        cap = int(raw)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise ConfigError(f"DOMGAME_CAP must be a non-negative integer, got {raw!r}") from None
    return min(value, cap)


def _load_graph(path: str):
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


# gen family -> (corpus family name, parameter names, builder from the
# parameter strings and --seed)
_GEN = {f.gen[0]: (name, *f.gen[1:]) for name, f in FAMILIES.items() if f.gen}


def _size_params(params: dict[str, str]) -> dict:
    """The corpus family's `size` parameters for the one graph gen builds,
    from its parameter strings by name: n_min = n_max = n, or for a
    caterpillar spine_min = spine_max = spine and its largest leg count as
    max_legs. Any other parameter (gnp's p) is passed on as it is."""
    if "spine" in params:
        spine = int(params["spine"])
        return {"spine_min": spine, "spine_max": spine,
                "max_legs": max(int(x) for x in params["legs"].split(","))}
    n = int(params.pop("n"))
    return {"n_min": n, "n_max": n, **params}


def cmd_gen(args) -> int:
    params = args.params[:-1]
    out = args.params[-1]
    fam = args.family
    if fam not in _GEN:
        raise ConfigError(f"unknown family {fam!r} ({', '.join(_GEN)})")
    name, names, build = _GEN[fam]
    if len(params) != len(names):
        raise ConfigError(f"gen {fam} takes {' '.join(names)} then the output file, "
                          f"got {len(args.params)} arguments")
    check_size(name, (args.seed,), _size_params(dict(zip(names, params))))
    g = build(params, args.seed)
    Path(out).write_text(write_edge_list(g), encoding="utf-8")
    print(f"wrote {fam} graph n={g.n} m={g.edge_count} to {out}")
    return 0


def cmd_solve(args) -> int:
    if args.cap < 0:
        raise ConfigError(f"--cap must be a non-negative integer, got {args.cap}")
    if args.cap > DEFAULT_SOLVER_CAP:
        raise ConfigError(f"--cap may lower the solver cap, not raise it: "
                          f"{args.cap} > {DEFAULT_SOLVER_CAP}")
    g = _load_graph(args.graph_file)
    gv = solve_game(g, _env_cap(args.cap))
    if args.json:
        print(json.dumps({"gamma_g": gv.gamma_g, "gamma_g_prime": gv.gamma_g_prime,
                          "optimal_first_move_d": gv.optimal_first_move_d,
                          "optimal_first_move_s": gv.optimal_first_move_s,
                          "graph": {"hash": g.graph_hash, "n": g.n, "m": g.edge_count}},
                         sort_keys=True))
    else:
        print(f"gamma_g={gv.gamma_g} gamma_g_prime={gv.gamma_g_prime}")
        print(f"optimal_first_dominator={gv.optimal_first_move_d} "
              f"optimal_first_staller={gv.optimal_first_move_s}")
    return 0


def cmd_simulate(args) -> int:
    g = _load_graph(args.graph_file)
    if g.n > MAX_GRAPH_VERTICES:  # play grows faster than linearly in n
        raise ConfigError(f"simulate plays graphs of at most {MAX_GRAPH_VERTICES} vertices, "
                          f"got {g.n}")
    first = "D" if args.first == "d" else "S"
    if args.staller == "worst":
        _, transcript = staller_worst_case(g, _env_cap(DEFAULT_WORST_CASE_CAP), first)
    else:
        staller = (make_staller_random(args.seed) if args.staller == "random"
                   else staller_min_decrease)
        transcript = play_game(g, dominator_greedy, staller, first)
    if args.json:
        doc = transcript.to_json_dict()
        if args.trace:
            doc["snapshots"] = [s.snapshot() for s in replay_states(g, transcript)]
        print(json.dumps(doc, sort_keys=True))
    else:
        print(transcript.to_text(), end="")
        if args.trace:
            for i, s in enumerate(replay_states(g, transcript)):
                print(f"# state after {i} moves")
                print(s.snapshot(), end="")
    return 0


def cmd_verify(args) -> int:
    if os.path.exists(args.spec):
        spec = spec_from_json(json.loads(Path(args.spec).read_text(encoding="utf-8")))
    else:
        spec = builtin_spec(args.spec)
    spec.caps = Caps(solver_n=_env_cap(spec.caps.solver_n),
                     worst_case_n=_env_cap(spec.caps.worst_case_n))
    report = run_corpus(spec, jobs=args.jobs)
    witness_paths = []
    if report.failures:
        wdir = Path(args.witness_dir)
        wdir.mkdir(parents=True, exist_ok=True)
        for k, (label, cr) in enumerate(report.failures):
            path = wdir / f"{k:03d}-{label}-{cr.claim}.json"
            path.write_text(json.dumps({"graph": label, **cr.to_json_dict()},
                                       sort_keys=True, indent=2) + "\n", encoding="utf-8")
            witness_paths.append(str(path))
    if args.json:
        print(report.to_json())
    elif args.csv:
        print(report.to_csv(), end="")
    else:
        counts = report.counts()
        print(f"graphs checked: {len(report.graphs)}")
        for claim in sorted(counts):
            parts = ", ".join(f"{k}={v}" for k, v in sorted(counts[claim].items()))
            print(f"  {claim}: {parts}")
        for label, best in (("dominator-start", report.worst_ratio("D")),
                            ("staller-start", report.worst_ratio("S"))):
            if best is not None:
                print(f"worst length/n ({label}): {best[0]:.4f} on {best[1]}")
        # a claim whose every report is a cap skip was never checked at all
        never = [claim for claim in sorted(counts) if set(counts[claim]) == {SKIPPED}]
        if never:
            print(f"skipped on every graph (caps too low): {', '.join(never)}")
        if report.failures:
            print(f"FAILURES: {len(report.failures)}")
            for path in witness_paths:
                print(f"  witness: {path}")
        elif not spec.checks:
            print("no checks requested")
        else:
            print("all checks that ran passed" if never else "all checks passed")
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="domgame",
                                     description="Domination game engine and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a corpus graph as an edge-list file")
    p_gen.add_argument("family", help="|".join(_GEN))
    p_gen.add_argument("params", nargs="+",
                       help="family parameters followed by the output file")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="exact game values via minimax")
    p_solve.add_argument("graph_file")
    p_solve.add_argument("--cap", type=int, default=DEFAULT_SOLVER_CAP)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="play one game and print the transcript")
    p_sim.add_argument("graph_file")
    p_sim.add_argument("--staller", choices=("random", "min", "worst"), default="random")
    p_sim.add_argument("--first", choices=("d", "s"), default="d")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--trace", action="store_true",
                       help="also print per-move state snapshots")
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a verification corpus")
    p_ver.add_argument("spec", help="corpus spec JSON file or a builtin name (smoke)")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--csv", action="store_true")
    p_ver.add_argument("--witness-dir", default="witnesses")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClaimViolationError as exc:
        print(f"claim violation: {exc}", file=sys.stderr)
        return 1
    except (DomGameError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
