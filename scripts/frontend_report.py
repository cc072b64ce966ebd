#!/usr/bin/env python3
"""CPU time of each extraction stage on the C corpus and a call-heavy program.

Runs the stages of ``extract`` one after another over all 20 corpus programs:
the lexer (``tokenize``), the parser (``parse``), the ICFG
(``build_icfg``), reaching definitions, graph assembly (``assemble_graph``)
and serialization to graph JSON (``serialize_graph``). Each stage is timed
over the whole corpus with ``time.process_time``, and the minimum over the
rounds is printed as microseconds per 1,000 AST nodes together with the
stage's share of the total. A second table does the same for one program
from the benchmark's generator, ``Shape(50, 25, 6, 3, 3)`` (about 8k AST
nodes), where return edges tie the functions into one large ICFG cycle and
reaching definitions cost more per node than on the corpus. Run it as
``PYTHONPATH=src python scripts/frontend_report.py``.
"""

import argparse
import sys
import time
from pathlib import Path

from verisel.frontend import assemble_graph, build_icfg, parse, reaching_definitions, tokenize
from verisel.graphio import PropertyKind, TokenVocabulary, serialize_graph

REPO = Path(__file__).resolve().parent.parent
STAGES = ("lexer", "parser", "ICFG", "reaching definitions", "assembly", "serialization")
# perfbench's generator.Shape(functions, statements, variables, fan_in, loop_depth)
CALL_HEAVY_SHAPE = (50, 25, 6, 3, 3)


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


def print_table(title: str, sources: list[str], rounds: int) -> None:
    """Print each stage's fastest CPU time over ``sources`` per 1,000 AST nodes."""
    nodes, best = stage_seconds(sources, rounds)
    total = sum(best.values())
    print(f"extraction stages on {title}, {nodes} AST nodes, "
          f"min CPU time of {rounds} rounds")
    for stage, seconds in best.items():
        print(f"{stage:>22}: {seconds / nodes * 1e9:8.0f} us per 1,000 nodes "
              f"({seconds / total:6.1%})")
    print(f"{'total':>22}: {total / nodes * 1e9:8.0f} us per 1,000 nodes")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=12,
                        help="passes over each input; each stage keeps its fastest")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sources = [path.read_text(encoding="utf-8")
               for path in sorted((REPO / "corpus").glob("*.c"))]
    print_table(f"{len(sources)} corpus programs", sources, args.rounds)

    sys.path.insert(0, str(REPO / "perfbench"))
    from generator import Shape, generate_program

    print()
    source = generate_program(Shape(*CALL_HEAVY_SHAPE), "layout-0", "seed-0")
    print_table(f"the generated program Shape{CALL_HEAVY_SHAPE}, layout-0, seed-0",
                [source], args.rounds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
