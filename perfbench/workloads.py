"""The three workloads: their inputs, their set-up and one timed pass.

Every pass is the operator flow ``extract -> train -> evaluate -> rank ->
explain``, run through ``verisel.cli.main`` in this process with ``--jobs
1``: one caller in a closed loop. The workloads differ in what each command
is given:

* ``corpus-cli``: the 20 shipped ``corpus/`` programs plus small generated
  ones (about 20-300 nodes). Fixed per-call costs dominate.
* ``extract-interproc``: generated call-heavy programs of about 1.3k and 2.0k
  nodes and one long call-free function of 4.6k nodes. Reaching definitions dominate. The model
  commands run on the shipped corpus only, so they stay a small, fixed share.
* ``model-large``: generated, mostly intraprocedural programs whose graphs
  have 400-1600 nodes, with the README's default model. The dense n x n
  attention dominates.

Program layouts (control structure, call sites, structural class and label
noise) are fixed per workload so that run cost and selector quality do not
swing with the seed; the seed picks operands, operators and constants, which
change the def-use chains and thus the graphs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
from generator import PORTFOLIO, PROPERTY, Shape, generate_program, label_table, pick_noisy

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# README default model: 2 GAT layers, width 32, jumping knowledge.
MODEL = {
    "num_gat_layers": 2,
    "edge_sets": ["AST", "ICFG", "DFG"],
    "jumping_knowledge": True,
    "gat_width": 32,
    "pool_hidden": [64, 12],
    "property_encoding": "scalar",
}
# Fast enough that corpus-cli's selector reaches the label-noise floor.
LEARNING_RATE = 0.002
# Rank calls per pass, cycling over the held-out graphs: the fewest passes a
# run makes (run.MIN_PASSES) give 100 samples, so p90 has ten beyond it.
RANK_CALLS = 34


@dataclass(frozen=True)
class Plan:
    """What one workload feeds each command."""

    name: str
    train: tuple[Shape, ...]      # generated programs the selector trains on
    heldout: tuple[Shape, ...]    # generated programs it is evaluated on
    extract_only: tuple[Shape, ...] = ()  # generated, extracted and nothing else
    corpus: bool = False          # shipped corpus joins the training programs
    corpus_model: bool = False    # model commands run on the corpus alone
    epochs: int = 4
    explain_iters: int = 100
    setup_model: bool = False     # rank/explain use a model trained in set-up


def _small_shapes() -> tuple[Shape, ...]:
    """Small programs, balanced over the three structural label classes.

    Each class shows in many nodes, not one: loop programs nest loops, call
    programs call every helper from every later function.
    """
    shapes = []
    for i in range(40):
        statements = 3 + (i * 5) % 13
        variables = 2 + i % 3
        kind = i % 3
        if kind == 0:    # loops, with or without calls
            shapes.append(Shape(i % 2, statements, variables, 1, 1 + i % 2))
        elif kind == 1:  # calls, no loops
            shapes.append(Shape(2 + i % 2, max(3, statements // 2), variables, 3, 0))
        else:            # neither
            shapes.append(Shape(0, 2 * statements, variables, 0, 0))
    return tuple(shapes)


_SMALL = _small_shapes()

PLANS = {
    # Corpus plus 40 small programs, 20-300 nodes, over all three label
    # classes: parsing, file I/O and argparse outweigh the analyses, and 20
    # epochs bring the selector to the label-noise floor on every seed.
    "corpus-cli": Plan(
        name="corpus-cli", train=_SMALL[:28], heldout=_SMALL[28:], corpus=True,
        epochs=20, explain_iters=100,
    ),
    # 1.3k- and 2.0k-node programs whose helpers call earlier helpers (fan-in
    # 2 and 3, loops 3 deep), so definitions flow through call and return
    # edges, plus one 4.6k-node call-free function for intraprocedural cost.
    # Reaching definitions grow superlinearly with calls: on a 2-vCPU VM the
    # 2.0k-node program takes about 1.5 s, four times the 1.3k one, and
    # call-heavy programs of 2.8k and 3.4k nodes take 7 s and 9 s. One of
    # those would fill a pass on its own and leave three passes per run, too
    # few for a steady median, so a pass stays near four seconds. The model
    # commands run on the shipped corpus, a small share that stays fixed.
    "extract-interproc": Plan(
        name="extract-interproc", train=(), heldout=(),
        extract_only=(Shape(6, 30, 6, 2, 3), Shape(12, 25, 6, 3, 3),
                      Shape(0, 1000, 10, 0, 3)),
        corpus_model=True, epochs=10, explain_iters=100,
    ),
    # Mostly call-free programs whose graphs have 430-1600 nodes, each label
    # class present: cheap to extract, so the dense n x n attention of the
    # default model dominates. One epoch and five explainer iterations keep a
    # pass near six seconds, most of it in 34 rank calls; n = 3.2k would
    # already need 2 GiB. Five held-out graphs put rank p50 and p90 inside
    # one graph's samples rather than on the edge between two.
    "model-large": Plan(
        name="model-large",
        train=(Shape(0, 90, 6, 0, 2), Shape(1, 70, 6, 1, 0),
               Shape(0, 130, 8, 0, 0), Shape(0, 180, 8, 0, 1),
               Shape(1, 150, 8, 1, 2), Shape(0, 350, 10, 0, 2)),
        heldout=(Shape(0, 100, 6, 0, 0), Shape(1, 120, 6, 1, 0),
                 Shape(0, 160, 8, 0, 2), Shape(0, 220, 8, 0, 1),
                 Shape(1, 100, 7, 1, 0)),
        epochs=1, explain_iters=5, setup_model=True,
    ),
}


def graph_digest(graph) -> str:
    """Hash of node kinds and sorted edges per set; ids and property ignored."""
    payload = [list(graph.node_kinds),
               {name: sorted([s, d] for s, d in edges)
                for name, edges in sorted(graph.edge_sets.items())}]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(sorted(digests.items())).encode()).hexdigest()


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {"corpus": {}, "generated": {}}


@dataclass(frozen=True)
class Timing:
    start: float
    end: float


class Cli:
    """Calls ``verisel.cli.main`` in-process, timing and counting each call.

    A machine-speed sample (see speed.py) follows every call, outside its
    timing; ``meter.seconds`` turns a returned :class:`Timing` into time at
    reference speed once the run's samples are in.
    """

    def __init__(self, tracer=None):
        from verisel.cli import main
        self.main = main
        self.tracer = tracer
        self.meter = speed.Meter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, argv: list[str]) -> tuple[bool, str, Timing]:
        if not self.meter.at:
            self.meter.sample()
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer and self.tracer.active
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            with span:
                try:
                    code = self.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            timing = Timing(started, time.perf_counter())
        self.meter.sample()
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.errors.append(f"verisel {argv[0]} exited {code}: "
                               f"{err.getvalue().strip()[-500:]}")
        return code == 0, out.getvalue(), timing


@dataclass
class Fixture:
    """Inputs written by set-up and reused by every pass."""

    work: Path
    sources: list[Path]                 # extracted by the pass
    model_graphs: Path | None           # graphs the model commands read, if
                                        # not the pass's own extraction
    train_ids: list[str]
    heldout_ids: list[str]
    labels: Path
    config: Path
    setup_model: Path | None = None
    source_text: dict[str, str] = field(default_factory=dict)


def _write_programs(plan: Plan, group: str, shapes, seed: int, out: Path) -> dict[str, str]:
    programs = {}
    for index, shape in enumerate(shapes):
        pid = f"{group}-{index:03d}"
        source = generate_program(shape, f"{plan.name}:layout:{group}:{index}",
                                  f"{plan.name}:{seed}:{group}:{index}")
        (out / f"{pid}.c").write_text(source, encoding="utf-8")
        programs[pid] = source
    return programs


def setup(plan: Plan, seed: int, work: Path, cli: Cli) -> Fixture:
    """Generate sources, labels and config; model-large also extracts and trains."""
    src = work / "src"
    src.mkdir(parents=True)
    train = _write_programs(plan, "train", plan.train, seed, src)
    heldout = _write_programs(plan, "heldout", plan.heldout, seed, src)
    extra = _write_programs(plan, "interproc", plan.extract_only, seed, src)
    sources = [src / f"{pid}.c" for pid in {**train, **heldout, **extra}]
    corpus = {p.stem: p.read_text(encoding="utf-8")
              for p in sorted(CORPUS.glob("*.c"))}
    model_graphs = None
    if plan.corpus:
        train.update(corpus)
        sources = [CORPUS / f"{pid}.c" for pid in corpus] + sources
    elif plan.corpus_model:
        # the model commands read the corpus, extracted once here
        ids = sorted(corpus)
        heldout = {i: corpus[i] for i in ids[::4]}  # 5 of the 20, spread out
        train = {i: corpus[i] for i in ids if i not in heldout}
        model_graphs = work / "corpus-graphs"
        if not cli(["extract", *(str(CORPUS / f"{i}.c") for i in ids),
                    "-o", str(model_graphs)])[0]:
            raise RuntimeError("set-up extraction failed")
    programs = {**train, **heldout}
    noisy = set(pick_noisy(list(train), f"{plan.name}:layout:noise:train"))
    noisy |= set(pick_noisy(list(heldout), f"{plan.name}:layout:noise:heldout"))
    labels = work / "labels.csv"
    labels.write_text(label_table(programs, noisy, f"{plan.name}:{seed}:cpu"),
                      encoding="utf-8")
    config = work / "config.json"
    config.write_text(json.dumps({
        "portfolio": list(PORTFOLIO),
        "model": MODEL,
        "train": {"epochs": plan.epochs, "initial_lr": LEARNING_RATE, "seed": 0},
        "split": {"ratios": [0.8, 0.1, 0.1], "seed": 0},
        "penalty": {"time_limit": 900.0, "penalty_weight": 1.0},
    }, indent=2), encoding="utf-8")
    fixture = Fixture(work, sources, model_graphs, sorted(train), sorted(heldout),
                      labels, config, source_text=programs)
    if plan.setup_model:
        graphs = work / "graphs"
        fixture.setup_model = work / "setup-model.bin"
        ok = cli(["extract", *map(str, sources), "-o", str(graphs)])[0]
        ok = ok and cli(["train", "--config", str(config), "--graphs",
                         *(str(graphs / f"{i}.json") for i in fixture.train_ids),
                         "--labels", str(labels), "-o", str(fixture.setup_model)])[0]
        if not ok:
            raise RuntimeError("set-up training failed")
    return fixture


@dataclass
class PassResult:
    calls: list[Timing]                # every command of the pass
    extract: Timing
    train: Timing
    train_steps: int
    evaluate: Timing
    evaluated: int
    rank: list[Timing]
    explain: Timing
    explain_iters: int
    graphs: Path                       # this pass's extraction output
    model: Path                        # the model this pass trained
    evaluation: str                    # evaluate --json output
    ranked: list[tuple[str, str]]      # (graph file, rank --json output)
    ranker: Path                       # the model rank and explain used
    explained: str                     # graph file explained
    report: Path                       # explain report file


def run_pass(plan: Plan, fx: Fixture, cli: Cli, index: int) -> PassResult:
    """One timed pass; its outputs go to a fresh directory."""
    out = fx.work / f"pass-{index}"
    graphs = out / "graphs"
    model = out / "model.bin"
    model_graphs = fx.model_graphs or graphs

    def files(ids):
        return [str(model_graphs / f"{i}.json") for i in ids]

    _, _, extract = cli(["extract", *map(str, fx.sources), "-o", str(graphs)])
    ok, text, train = cli(["train", "--config", str(fx.config),
                           "--graphs", *files(fx.train_ids),
                           "--labels", str(fx.labels), "-o", str(model)])
    steps = 0
    if ok:
        summary = json.loads(text)
        steps = summary["epochs_run"] * summary["split_sizes"][0]
    _, evaluation, evaluate = cli(["evaluate", "--model", str(model),
                                   "--graphs", *files(fx.heldout_ids),
                                   "--labels", str(fx.labels), "--json"])
    ranker = fx.setup_model or model
    rank, ranked = [], []
    for call in range(RANK_CALLS):
        pick = fx.heldout_ids[(index * RANK_CALLS + call) % len(fx.heldout_ids)]
        graph = files([pick])[0]
        _, text, timing = cli(["rank", "--model", str(ranker), "--graph", graph,
                               "--property", PROPERTY, "--json"])
        rank.append(timing)
        ranked.append((graph, text))
    explained = files([explain_target(fx)])[0]
    report = out / "explain.json"
    _, _, explain = cli(["explain", "--model", str(ranker), "--graph", explained,
                         "-o", str(report), "--iters", str(plan.explain_iters)])
    return PassResult([extract, train, evaluate, *rank, explain], extract, train, steps,
                      evaluate, len(fx.heldout_ids), rank, explain, plan.explain_iters,
                      graphs, model, evaluation, ranked, ranker, explained, report)


def explain_target(fx: Fixture) -> str:
    """The median-sized held-out program, by source length."""
    ids = sorted(fx.heldout_ids, key=lambda i: (len(fx.source_text[i]), i))
    return ids[len(ids) // 2]
