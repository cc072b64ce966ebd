"""Spans around verisel's public functions, recorded from outside the program.

A :class:`Site` names a module attribute that verisel looks up at call time
(for example ``verisel.frontend.graph_build.reaching_definitions``, which
``extract_graph`` calls through its module globals) and the parameter names
the benchmark expects it to have. While a :class:`Tracer` is installed, each
site is replaced by a wrapper that records one span per call: name, start,
end, parent span, pass id, and counts taken from the arguments and the
return value. A site whose target is missing or whose signature changed is
left alone and every metric that needs it is reported as missing, so a
later change that reshapes a layer still runs the benchmark unchanged.

Spans stay in memory and are written as JSON Lines when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def _nbytes(path) -> int:
    return Path(path).stat().st_size


@dataclass(frozen=True)
class Site:
    module: str
    attr: str
    span: str                      # span name, "<layer>.<what>"
    params: tuple[str, ...]        # expected parameter names, in order
    count: Callable | None = None  # (args, kwargs, result) -> {name: number}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


SITES = (
    # frontend, as extract_graph calls it
    Site("verisel.cli", "extract_graph", "frontend.extract_graph",
         ("source", "vocab", "graph_id", "property", "max_nodes"),
         lambda a, k, r: {"nodes": r[0].num_nodes}),
    Site("verisel.frontend.graph_build", "tokenize", "lexer.tokenize",
         ("source",), lambda a, k, r: {"tokens": len(r)}),
    Site("verisel.frontend.graph_build", "parse", "parser.parse",
         ("tokens",), lambda a, k, r: {"ast_nodes": len(r)}),
    Site("verisel.frontend.graph_build", "build_icfg", "cfg.build_icfg",
         ("ast",), lambda a, k, r: {"icfg_edges": len(r.edges)}),
    Site("verisel.frontend.graph_build", "reaching_definitions",
         "dataflow.reaching_definitions", ("ast", "icfg"),
         lambda a, k, r: {"dfg_edges": len(r.edges)}),
    Site("verisel.frontend.graph_build", "assemble_graph",
         "graph_build.assemble_graph",
         ("ast", "icfg", "dfg", "vocab", "graph_id", "property", "max_nodes")),
    # graph and label files, as the commands call them
    Site("verisel.cli", "save_graph", "graphio.save_graph", ("graph", "path"),
         lambda a, k, r: {"bytes": _nbytes(_arg(a, k, 1, "path"))}),
    Site("verisel.cli", "load_graph", "graphio.load_graph", ("path",),
         lambda a, k, r: {"bytes": _nbytes(_arg(a, k, 0, "path"))}),
    Site("verisel.cli", "load_labels", "graphio.load_labels", ("path",),
         lambda a, k, r: {"bytes": _nbytes(_arg(a, k, 0, "path"))}),
    Site("verisel.cli", "build_instances", "graphio.build_instances",
         ("graphs", "records", "portfolio", "time_limit", "penalty_weight")),
    # model: every caller of forward_scores looks it up in its own module
    Site("verisel.model", "forward_scores", "model.forward_scores",
         ("graph", "params", "prop", "message_mask")),
    Site("verisel.trainer", "forward_scores", "model.forward_scores",
         ("graph", "params", "prop", "message_mask")),
    Site("verisel.explain", "forward_scores", "model.forward_scores",
         ("graph", "params", "prop", "message_mask")),
    Site("verisel.model", "gat_layer", "model.gat_layer",
         ("states", "edges", "params", "slope", "message_mask", "allowed_mask"),
         lambda a, k, r: {"n": _arg(a, k, 0, "states").shape[0],
                          "n2": _arg(a, k, 0, "states").shape[0] ** 2,
                          "edges": len(_arg(a, k, 1, "edges"))}),
    Site("verisel.model", "attention_pool", "model.attention_pool",
         ("states", "pool", "slope")),
    Site("verisel.cli", "predict", "model.predict",
         ("graph", "params", "prop", "vocab")),
    Site("verisel.cli", "save_model", "model.save_model", ("params", "path")),
    Site("verisel.cli", "load_model", "model.load_model", ("path",)),
    Site("verisel.tensor", "backward", "tensor.backward", ("loss",)),
    # trainer
    Site("verisel.cli", "train", "trainer.train",
         ("train_set", "val_set", "init", "cfg"),
         lambda a, k, r: {
             "epochs": len(r[1].epochs),
             "lr_decays": sum(1 for x, y in zip(r[1].epochs, r[1].epochs[1:])
                              if y.lr < x.lr),
         }),
    Site("verisel.trainer", "validation_loss", "trainer.validation_loss",
         ("instances", "params", "margin")),
    Site("verisel.cli", "evaluate_rankings", "trainer.evaluate_rankings",
         ("results", "instances", "ks")),
    # explainer
    Site("verisel.cli", "explain", "explain.explain",
         ("params", "graph", "iters", "lr", "size_weight", "entropy_weight",
          "seed", "init_noise", "edge_sets"),
         lambda a, k, r: {"iters": len(r.trace)}),
)


def resolve(site: Site):
    """The site's current target, or None if it is missing or reshaped."""
    try:
        target = getattr(importlib.import_module(site.module), site.attr)
        names = tuple(inspect.signature(target).parameters)
    except (ImportError, AttributeError, TypeError, ValueError):
        return None
    return target if names == site.params else None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; sites are patched only while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self.active = False                # True while the sites are patched
        self.missing: dict[str, str] = {}  # span name -> reason
        self.bad_counts: set[str] = set()  # span names whose counter failed

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, site: Site, target):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(site.span) as record:
                result = target(*args, **kwargs)
            if site.count is not None:
                try:
                    record.counts.update(site.count(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    tracer.bad_counts.add(site.span)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every resolvable site; restore the originals on exit."""
        patched = []
        try:
            for site in SITES:
                target = resolve(site)
                if target is None:
                    self.missing.setdefault(
                        site.span, f"{site.module}.{site.attr} missing or reshaped")
                    continue
                module = importlib.import_module(site.module)
                setattr(module, site.attr, self._wrap(site, target))
                patched.append((module, site.attr, target))
            self.active = True
            yield self
        finally:
            self.active = False
            for module, attr, target in reversed(patched):
                setattr(module, attr, target)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, "counts": s.counts,
                }, sort_keys=True) + "\n")


class PassView:
    """The spans of one traced pass, with the sums the layer metrics need."""

    def __init__(self, spans: list[Span], run: int):
        self.spans = spans
        self.ids = [i for i, s in enumerate(spans) if s.run == run]
        self._own: dict[int, float] = {i: spans[i].duration for i in self.ids}
        for i in self.ids:
            parent = spans[i].parent
            if parent is not None:
                self._own[parent] -= spans[i].duration

    def busy(self, *names: str) -> float:
        """Time inside spans with these names, nested ones counted once."""
        total = 0.0
        for i in self.ids:
            s = self.spans[i]
            if s.name not in names:
                continue
            parent = s.parent
            while parent is not None and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent is None:
                total += s.duration
        return total

    def own(self, name: str) -> list[float]:
        """Self times of the spans called ``name``: duration minus children."""
        return [self._own[i] for i in self.ids if self.spans[i].name == name]

    def names(self, prefix: str) -> set[str]:
        return {self.spans[i].name for i in self.ids
                if self.spans[i].name.startswith(prefix)}

    def calls(self, name: str) -> int:
        return sum(1 for i in self.ids if self.spans[i].name == name)

    def total(self, name: str, key: str) -> float:
        return sum(self.spans[i].counts.get(key, 0) for i in self.ids
                   if self.spans[i].name == name)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


# Per-layer metrics of one traced pass: name -> (unit, spans it needs, value).
# Each entry's comment names the end-to-end metric it should move.
LAYER_METRICS = {
    # extract_nodes_per_s, pipeline_s (extract-interproc)
    "dataflow.busy_s": ("s", ("dataflow.reaching_definitions",),
                        lambda v: v.busy("dataflow.reaching_definitions")),
    "dataflow.share": ("ratio", ("dataflow.reaching_definitions", "frontend.extract_graph"),
                       lambda v: _ratio(v.busy("dataflow.reaching_definitions"),
                                        v.busy("frontend.extract_graph"))),
    "dataflow.dfg_edges": ("count", ("dataflow.reaching_definitions",),
                           lambda v: v.total("dataflow.reaching_definitions", "dfg_edges")),
    # extract_nodes_per_s (corpus-cli)
    "lexer.busy_s": ("s", ("lexer.tokenize",), lambda v: v.busy("lexer.tokenize")),
    "lexer.tokens": ("count", ("lexer.tokenize",), lambda v: v.total("lexer.tokenize", "tokens")),
    "lexer.tokens_per_s": ("1/s", ("lexer.tokenize",),
                           lambda v: _ratio(v.total("lexer.tokenize", "tokens"),
                                            v.busy("lexer.tokenize"))),
    "parser.busy_s": ("s", ("parser.parse",), lambda v: v.busy("parser.parse")),
    "parser.ast_nodes": ("count", ("parser.parse",),
                         lambda v: v.total("parser.parse", "ast_nodes")),
    "parser.nodes_per_s": ("1/s", ("parser.parse",),
                           lambda v: _ratio(v.total("parser.parse", "ast_nodes"),
                                            v.busy("parser.parse"))),
    "cfg.busy_s": ("s", ("cfg.build_icfg",), lambda v: v.busy("cfg.build_icfg")),
    "cfg.icfg_edges": ("count", ("cfg.build_icfg",),
                       lambda v: v.total("cfg.build_icfg", "icfg_edges")),
    "graph_build.busy_s": ("s", ("graph_build.assemble_graph",),
                           lambda v: v.busy("graph_build.assemble_graph")),
    # rank_p50_ms, evaluate_graphs_per_s (corpus-cli)
    "graphio.busy_s": ("s", ("graphio.save_graph", "graphio.load_graph",
                             "graphio.load_labels", "graphio.build_instances"),
                       lambda v: v.busy("graphio.save_graph", "graphio.load_graph",
                                        "graphio.load_labels", "graphio.build_instances")),
    "graphio.bytes": ("B", ("graphio.save_graph", "graphio.load_graph", "graphio.load_labels"),
                      lambda v: sum(v.total(n, "bytes") for n in (
                          "graphio.save_graph", "graphio.load_graph", "graphio.load_labels"))),
    # rank_p50_ms, rank_p90_ms, evaluate_graphs_per_s, train_steps_per_s (model-large)
    "model.forward_busy_s": ("s", ("model.forward_scores",),
                             lambda v: v.busy("model.forward_scores")),
    "model.forward_calls": ("count", ("model.forward_scores",),
                            lambda v: v.calls("model.forward_scores")),
    "model.gat_layer_busy_s": ("s", ("model.gat_layer",), lambda v: v.busy("model.gat_layer")),
    "model.pool_busy_s": ("s", ("model.attention_pool",),
                          lambda v: v.busy("model.attention_pool")),
    # peak_rss_mib, train_steps_per_s: useful share of the dense attention cells
    "model.attn_density": ("ratio", ("model.gat_layer",),
                           lambda v: _ratio(v.total("model.gat_layer", "edges")
                                            + v.total("model.gat_layer", "n"),
                                            v.total("model.gat_layer", "n2"))),
    # rank_p50_ms (corpus-cli)
    "model.io_busy_s": ("s", ("model.save_model", "model.load_model"),
                        lambda v: v.busy("model.save_model", "model.load_model")),
    # train_steps_per_s, explain_iters_per_s
    "tensor.backward_busy_s": ("s", ("tensor.backward",), lambda v: v.busy("tensor.backward")),
    "tensor.backward_calls": ("count", ("tensor.backward",),
                              lambda v: v.calls("tensor.backward")),
    # train_steps_per_s (corpus-cli: fixed per-step cost)
    "trainer.busy_s": ("s", ("trainer.train",), lambda v: v.busy("trainer.train")),
    "trainer.self_s": ("s", ("trainer.train", "model.forward_scores", "tensor.backward",
                             "trainer.validation_loss"),
                       lambda v: sum(v.own("trainer.train"))),
    "trainer.validation_busy_s": ("s", ("trainer.validation_loss",),
                                  lambda v: v.busy("trainer.validation_loss")),
    "trainer.epochs": ("count", ("trainer.train",), lambda v: v.total("trainer.train", "epochs")),
    "trainer.lr_decays": ("count", ("trainer.train",),
                          lambda v: v.total("trainer.train", "lr_decays")),
    "trainer.evaluate_busy_s": ("s", ("trainer.evaluate_rankings",),
                                lambda v: v.busy("trainer.evaluate_rankings")),
    # explain_iters_per_s (model-large)
    "explain.busy_s": ("s", ("explain.explain",), lambda v: v.busy("explain.explain")),
    "explain.iters": ("count", ("explain.explain",), lambda v: v.total("explain.explain", "iters")),
    "explain.self_s": ("s", ("explain.explain", "model.forward_scores", "tensor.backward"),
                       lambda v: sum(v.own("explain.explain"))),
    # rank_p50_ms (corpus-cli): argparse, JSON emit, file reads
    "cli.self_s": ("s", (), lambda v: sum(sum(v.own(n)) for n in v.names("cli."))),
}
