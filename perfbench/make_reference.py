#!/usr/bin/env python3
"""Record the graph digests that every benchmark run is checked against.

Run once, from the root of the checkout whose frontend output is the
reference (the commit that introduced the benchmark):

    python3 perfbench/make_reference.py

It extracts the shipped corpus and each workload's generated programs for
seeds ``0 .. SEEDS - 1`` through ``verisel extract`` and writes
``perfbench/reference.json``. Later commits keep the file as it is: a run
whose graphs differ from it counts a failed check.
"""

import json
import shutil
import sys

from run import ROOT, import_verisel

SEEDS = 100


def main() -> int:
    import_verisel()
    from verisel.graphio import load_graph
    from workloads import CORPUS, PLANS, REFERENCE, Cli, combined_digest, graph_digest, setup

    cli = Cli()
    work = ROOT / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        out = work / "corpus"
        sources = sorted(CORPUS.glob("*.c"))
        if not cli(["extract", *map(str, sources), "-o", str(out)])[0]:
            raise SystemExit("corpus extraction failed")
        reference = {"corpus": {p.stem: graph_digest(load_graph(out / f"{p.stem}.json"))
                                for p in sources},
                     "generated": {}}
        for name, plan in PLANS.items():
            table = reference["generated"][name] = {}
            for seed in range(SEEDS):
                fx = setup(plan, seed, work / f"{name}-{seed}", cli)
                generated = [p for p in fx.sources if p.parent != CORPUS]
                out = work / f"{name}-{seed}" / "reference"
                if not cli(["extract", *map(str, generated), "-o", str(out)])[0]:
                    raise SystemExit(f"{name} seed {seed}: extraction failed")
                table[str(seed)] = combined_digest(
                    {p.stem: graph_digest(load_graph(out / f"{p.stem}.json"))
                     for p in generated})
                shutil.rmtree(work / f"{name}-{seed}")
            print(f"{name}: {SEEDS} seeds", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
