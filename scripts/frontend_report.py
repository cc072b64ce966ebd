#!/usr/bin/env python3
"""CPU time of each extraction stage per 1,000 AST nodes on the shipped C corpus.

Runs the stages of ``extract`` one after another over all 20 corpus programs:
the lexer (``tokenize``), the parser (``parse``), the ICFG
(``build_icfg``), reaching definitions, graph assembly (``assemble_graph``)
and serialization to graph JSON (``serialize_graph``). Each stage is timed
over the whole corpus with ``time.process_time``, and the minimum over the
rounds is printed as microseconds per 1,000 AST nodes together with the
stage's share of the total. Run it as
``PYTHONPATH=src python scripts/frontend_report.py``.
"""

import argparse
import time
from pathlib import Path

from verisel.frontend import assemble_graph, build_icfg, parse, reaching_definitions, tokenize
from verisel.graphio import PropertyKind, TokenVocabulary, serialize_graph

REPO = Path(__file__).resolve().parent.parent
STAGES = ("lexer", "parser", "ICFG", "reaching definitions", "assembly", "serialization")


def stage_seconds(sources: list[str], rounds: int) -> tuple[int, dict[str, float]]:
    """AST nodes over ``sources`` and the minimum CPU seconds of each stage
    over ``rounds`` rounds."""
    vocab = TokenVocabulary.default()

    def assemble(ast, icfg, dfg, i):
        return assemble_graph(ast, icfg, dfg, vocab, graph_id=str(i),
                              property=PropertyKind.REACH_SAFETY)

    best = dict.fromkeys(STAGES, float("inf"))

    def timed(stage, fn, *inputs):
        t0 = time.process_time()
        out = [fn(*args) for args in zip(*inputs)]
        best[stage] = min(best[stage], time.process_time() - t0)
        return out

    for _ in range(rounds):
        tokens = timed("lexer", tokenize, sources)
        asts = timed("parser", parse, tokens)
        icfgs = timed("ICFG", build_icfg, asts)
        dfgs = timed("reaching definitions", reaching_definitions, asts, icfgs)
        graphs = timed("assembly", assemble, asts, icfgs, dfgs, range(len(sources)))
        timed("serialization", serialize_graph, graphs)
    return sum(len(ast) for ast in asts), best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=12,
                        help="passes over the corpus; each stage keeps its fastest")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sources = [path.read_text(encoding="utf-8")
               for path in sorted((REPO / "corpus").glob("*.c"))]
    nodes, best = stage_seconds(sources, args.rounds)
    total = sum(best.values())
    print(f"extraction stages on {len(sources)} corpus programs, {nodes} AST nodes, "
          f"min CPU time of {args.rounds} rounds")
    for stage, seconds in best.items():
        print(f"{stage:>22}: {seconds / nodes * 1e9:8.0f} us per 1,000 nodes "
              f"({seconds / total:6.1%})")
    print(f"{'total':>22}: {total / nodes * 1e9:8.0f} us per 1,000 nodes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
