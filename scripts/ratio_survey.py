#!/usr/bin/env python3
"""Survey game-length ratios across corpus families.

For each graph the script reports the exact game value, the longest game any
Staller can force against the greedy Dominator, and length/n, flagging
graphs where the 5/8 budget is met with equality. Useful for eyeballing how
far typical families sit from the guarantee (the long-standing target for
isolate-free graphs is 3/5).

Usage:
    python scripts/ratio_survey.py --families paths,cycles,trees --n-max 12
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from domgame import (  # noqa: E402
    ConfigError,
    corpus_items,
    solve_game,
    spec_from_json,
    staller_worst_case,
)
from domgame.verify import FAMILIES  # noqa: E402

SIZED = [name for name, fam in FAMILIES.items() if "n_max" in fam.params]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", default="paths,cycles,stars",
                        help=f"comma list from {SIZED}")
    parser.add_argument("--n-min", type=int, default=None,
                        help="smallest n (default: each family's smallest, 3 for cycles, else 2)")
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--seeds", type=int, default=3, help="seeds per sampled family")
    parser.add_argument("--p", type=float, default=0.3, help="edge probability for gnp")
    parser.add_argument("--staller-start", action="store_true")
    args = parser.parse_args(argv)

    families = []
    for family in args.families.split(","):
        family = family.strip()
        if family not in SIZED:
            parser.error(f"unknown family {family!r}")
        params = {"n_max": args.n_max}
        if "p" in FAMILIES[family].params:
            params["p"] = args.p
        if args.n_min is not None:
            params["n_min"] = args.n_min
        families.append({"name": family, "params": params, "seeds": list(range(args.seeds))})
    try:
        items = corpus_items(spec_from_json({"families": families, "checks": []}))
    except (ConfigError, ValueError) as exc:
        parser.error(str(exc))

    first = "S" if args.staller_start else "D"
    print(f"{'graph':<18} {'n':>3} {'exact':>5} {'worst':>5} {'len/n':>7}  note")
    worst_ratio, worst_label = 0.0, "-"
    for label, g, _ in items:
        gv = solve_game(g)
        exact = gv.gamma_g if first == "D" else gv.gamma_g_prime
        length, _ = staller_worst_case(g, first=first)
        ratio = length / g.n
        budget = (5 * g.n) // 8 if first == "D" else (5 * g.n + 2) // 8
        note = "tight" if length == budget else ""
        if ratio > worst_ratio:
            worst_ratio, worst_label = ratio, label
        print(f"{label:<18} {g.n:>3} {exact:>5} {length:>5} {ratio:>7.4f}  {note}")
    print(f"\nworst length/n: {worst_ratio:.4f} on {worst_label}"
          f" (guarantee {'5/8 = 0.625' if first == 'D' else '(5n+2)/8n'})")


if __name__ == "__main__":
    main()
