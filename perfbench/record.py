#!/usr/bin/env python3
"""Record the reference digests in reference/ from the program in src/.

    python3 perfbench/record.py --source "src/ at commit <sha>" [--workload NAME ...]

Runs every item of each named workload's universe once (all four and the
CLI commands when none is named) and writes reference/<workload>.json.
Run it only on the commit whose outputs are the reference. A workload with
an item that fails a reference-free check is reported and not written.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, cli_outputs, import_program
from workloads import WORKLOADS, digest


def write(name: str, source: str, digests: dict[str, str]) -> None:
    doc = {"source": source, "digests": digests}
    (REFERENCE / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                            encoding="utf-8")
    print(f"wrote {len(digests)} digests for {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--source", required=True,
                        help="where the reference outputs came from, stored in each file")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS) + ["cli"])
    args = parser.parse_args(argv)
    dg = import_program()
    status = 0
    for name in args.workload or sorted(WORKLOADS) + ["cli"]:
        if name == "cli":
            outputs = cli_outputs(dg)
            bad = [key for key, (code, _, _) in outputs.items() if code != 0]
            digests = {key: digest(text) for key, (_, text, _) in outputs.items()}
        else:
            workload, digests, bad = WORKLOADS[name], {}, []
            for spec in workload.universe():
                inp = workload.prepare(dg, spec)
                out = workload.run(dg, spec, inp)
                bad.extend(f"{spec.key}: {p}" for p in workload.problems(spec, inp, out))
                digests[spec.key] = digest(workload.output_text(out))
        if bad:
            print(f"{name}: not written, checks failed: {bad[:10]}", file=sys.stderr)
            status = 1
        else:
            write(name, args.source, digests)
    return status


if __name__ == "__main__":
    sys.exit(main())
