"""Command-line entry point: extract, train, rank, evaluate, explain.

Exit codes are a stable scripting contract: 0 on success, 1 on runtime
failure, 2 on usage errors. All JSON output is canonical (sorted keys), and
``train`` accepts ``--seed`` so runs are reproducible. Run configuration
for ``train`` is a JSON document whose values can be overridden through
``VERISEL_<SECTION>_<FIELD>`` environment variables (values parsed as JSON,
falling back to plain strings).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .explain import UnknownEdgeSets, explain, to_dot, top_m_edges
from .frontend import DEFAULT_MAX_NODES, FrontendError, extract_graph
from .graphio import (
    ProgramGraph,
    PropertyKind,
    SchemaError,
    TokenVocabulary,
    build_instances,
    label_penalty,
    load_graph,
    load_labels,
    portfolio_names,
    save_graph,
    split_dataset,
    split_ratios,
)
from .model import (
    ModelConfig,
    init_parameters,
    load_model,
    predict,
    save_model,
)
from .trainer import TrainConfig, evaluate_rankings, format_table, train

ENV_PREFIX = "VERISEL_"


class UsageError(Exception):
    """Bad invocation that argparse cannot catch on its own."""


@dataclass
class RunConfig:
    vocabulary: str | None
    portfolio: tuple[str, ...]
    model: ModelConfig
    train: TrainConfig
    split_ratios: tuple[float, float, float]
    split_seed: int
    time_limit: float
    penalty_weight: float

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        sections = {name: data.get(name, {}) for name in ("split", "penalty", "model", "train")}
        not_objects = [name for name, value in sections.items() if not isinstance(value, dict)]
        if not_objects:
            raise UsageError(f"config: {', '.join(not_objects)} must be a JSON object")
        split, penalty = sections["split"], sections["penalty"]
        # a misspelt key would otherwise leave its default in force unnoticed
        fields = {"split": {"ratios", "seed"}, "penalty": {"time_limit", "penalty_weight"}}
        unknown = sorted(set(data) - {"vocabulary", "portfolio", *sections})
        unknown += sorted(f"{name}.{key}" for name, known in fields.items()
                          for key in set(sections[name]) - known)
        if unknown:
            raise UsageError(f"config: unknown keys: {', '.join(unknown)}")
        split_seed = split.get("seed", 0)
        if type(split_seed) is not int:
            raise UsageError(f"config: split.seed must be an integer, got {split_seed!r}")
        try:
            time_limit, penalty_weight = label_penalty(
                penalty.get("time_limit", 900.0), penalty.get("penalty_weight", 1.0))
            return cls(
                vocabulary=data.get("vocabulary"),
                portfolio=portfolio_names(data.get("portfolio", ())),
                model=ModelConfig.from_dict(sections["model"]),
                train=TrainConfig.from_dict(sections["train"]),
                split_ratios=split_ratios(split.get("ratios", (0.8, 0.1, 0.1))),
                split_seed=split_seed,
                time_limit=time_limit,
                penalty_weight=penalty_weight,
            )
        except (TypeError, ValueError) as err:
            raise UsageError(f"config: {err}") from err


def apply_env_overrides(data: dict, environ=None) -> dict:
    """Fold VERISEL_* variables into the config dict (JSON-parsed values)."""
    environ = os.environ if environ is None else environ
    top_level = {"vocabulary", "portfolio"}
    for key, raw in sorted(environ.items()):
        if not key.startswith(ENV_PREFIX):
            continue
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        name = key[len(ENV_PREFIX):].lower()
        if name in top_level:
            data[name] = value
            continue
        section, _, field = name.partition("_")
        if not field:
            raise UsageError(f"cannot interpret override {key}")
        target = data.setdefault(section, {})
        if not isinstance(target, dict):
            raise UsageError(f"cannot apply {key}: {section} is not a JSON object")
        target[field] = value
    return data


def load_run_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read config {path}: {err}") from err
    if not isinstance(data, dict):
        raise UsageError(f"config {path}: not a JSON object")
    return RunConfig.from_dict(apply_env_overrides(data))


def _load_vocab(path: str | None) -> TokenVocabulary:
    return TokenVocabulary.load(path) if path else TokenVocabulary.default()


def _graph_paths(specs: list[str]) -> list[Path]:
    paths: list[Path] = []
    for spec in specs:
        p = Path(spec)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        else:
            paths.append(p)
    if not paths:
        raise UsageError("no graph files found")
    return paths


def _load_graphs(specs: list[str]) -> list[ProgramGraph]:
    return [load_graph(p) for p in _graph_paths(specs)]


def _emit(text: str, out):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


# ---------------------------------------------------------------------------
# extract


def _corpus_stats(graphs: list[ProgramGraph]) -> dict:
    stats: dict = {}
    groups: dict[str, list[ProgramGraph]] = {"overall": list(graphs)}
    for g in graphs:
        groups.setdefault(g.property.value, []).append(g)
    for name, members in sorted(groups.items()):
        nodes = [g.num_nodes for g in members]
        edges = [g.num_edges() for g in members]
        stats[name] = {
            "count": len(members),
            "max_nodes": max(nodes),
            "mean_nodes": float(np.mean(nodes)),
            "max_edges": max(edges),
            "mean_edges": float(np.mean(edges)),
        }
    return stats


def _stats_table(stats: dict) -> str:
    header = ["section", "count", "max_nodes", "mean_nodes", "max_edges", "mean_edges"]
    rows = [header]
    for name, block in stats.items():
        rows.append([
            name, str(block["count"]), str(block["max_nodes"]),
            f"{block['mean_nodes']:.1f}", str(block["max_edges"]),
            f"{block['mean_edges']:.1f}",
        ])
    return format_table(rows)


def cmd_extract(args) -> int:
    vocab = _load_vocab(args.vocab)
    prop = PropertyKind.from_name(args.property)
    out = Path(args.out)
    single_file = len(args.files) == 1 and out.suffix == ".json"
    if not single_file:
        out.mkdir(parents=True, exist_ok=True)

    graphs = []
    failures = 0
    for path_str in args.files:
        path = Path(path_str)
        try:
            graph, diagnostics = extract_graph(
                path.read_text(encoding="utf-8"), vocab, graph_id=path.stem,
                property=prop, max_nodes=args.max_nodes,
            )
        except (FrontendError, SchemaError, OSError) as err:
            failures += 1
            print(f"{path_str}: {err}", file=sys.stderr)
            continue
        for note in diagnostics:
            print(f"{path}: {note}", file=sys.stderr)
        target = out if single_file else out / f"{path.stem}.json"
        save_graph(graph, target)
        graphs.append(graph)

    if graphs:
        stats = _corpus_stats(graphs)
        if args.json:
            _emit(json.dumps(stats, sort_keys=True, indent=2), sys.stdout)
        else:
            _emit(_stats_table(stats), sys.stdout)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    vocab = _load_vocab(args.vocab or config.vocabulary)
    graphs = _load_graphs(args.graphs)
    records = load_labels(args.labels)
    instances = build_instances(
        graphs, records, config.portfolio,
        time_limit=config.time_limit, penalty_weight=config.penalty_weight,
    )
    train_set, val_set, test_set = split_dataset(
        instances, config.split_ratios, config.split_seed
    )
    train_cfg = config.train
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    init = init_parameters(config.model, vocab, config.portfolio,
                           seed=train_cfg.seed)
    params, history = train(train_set, val_set, init, train_cfg)
    save_model(params, args.out)
    if args.history:
        Path(args.history).write_text(history.to_json(), encoding="utf-8")
    best_val = min(e.val_loss for e in history.epochs)
    _emit(
        json.dumps({
            "epochs_run": len(history.epochs),
            "stop_reason": history.stop_reason,
            "best_val_loss": best_val,
            "split_sizes": [len(train_set), len(val_set), len(test_set)],
            "model": str(args.out),
        }, sort_keys=True, indent=2),
        sys.stdout,
    )
    return 0


# ---------------------------------------------------------------------------
# rank


def cmd_rank(args) -> int:
    params = load_model(args.model)
    graph = load_graph(args.graph)
    prop = PropertyKind.from_name(args.property)
    result = predict(graph, params, prop=prop)
    if args.json:
        payload = {
            "graph_id": result.graph_id,
            "property": prop.value,
            "ranking": [
                {"rank": i + 1, "verifier": params.portfolio[v],
                 "score": result.scores[v]}
                for i, v in enumerate(result.ordering)
            ],
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2), sys.stdout)
    else:
        for i, v in enumerate(result.ordering):
            _emit(f"{i + 1}. {params.portfolio[v]}  {result.scores[v]:+.6f}",
                  sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _top_ks(spec: str | None, portfolio_size: int) -> list[int] | None:
    """The K values of ``--ks``, each in 1..portfolio size (None: every K)."""
    if not spec:
        return None
    ks = []
    for text in filter(str.strip, spec.split(",")):
        try:
            ks.append(int(text))
        except ValueError:
            raise UsageError(f"--ks: {text.strip()!r} is not an integer") from None
        if not 1 <= ks[-1] <= portfolio_size:
            raise UsageError(f"--ks: K={ks[-1]} outside 1..{portfolio_size}")
    return ks or None


def cmd_evaluate(args) -> int:
    params = load_model(args.model)
    ks = _top_ks(args.ks, len(params.portfolio))
    graphs = _load_graphs(args.graphs)
    records = load_labels(args.labels)
    instances = build_instances(
        graphs, records, params.portfolio,
        time_limit=args.time_limit, penalty_weight=args.penalty_weight,
    )
    results = [predict(inst.graph, params) for inst in instances]
    report = evaluate_rankings(results, instances, ks)
    _emit(report.to_json() if args.json else report.to_text(), sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# explain


def cmd_explain(args) -> int:
    params = load_model(args.model)
    graph = load_graph(args.graph)
    vocab = _load_vocab(args.vocab)
    try:
        mask = explain(
            params, graph,
            iters=args.iters, lr=args.lr,
            size_weight=args.size_weight, entropy_weight=args.entropy_weight,
            edge_sets=tuple(args.edge_sets.split(",")) if args.edge_sets else None,
        )
    except UnknownEdgeSets as err:
        raise UsageError(f"--edge-sets: {err}") from err
    report = top_m_edges(mask, graph, vocab)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        _emit(text, sys.stdout)
    if args.dot:
        Path(args.dot).write_text(to_dot(graph, vocab, report), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _int_at_least(low: int, high: int | None = None):
    """An argparse type: an integer no smaller than ``low``, nor larger than ``high``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _finite_float(text: str) -> float:
    """An argparse type: a finite number (no nan or inf)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """An argparse type: a finite number above zero."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it as
    it is and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="verisel",
        description="Rank software verifiers for C programs with a graph "
                    "attention network over program graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="convert C sources into graph JSON")
    p.add_argument("files", nargs="+", help="C source files")
    p.add_argument("-o", "--out", required=True,
                   help="output graph file (single input) or directory")
    p.add_argument("--property", default="ReachSafety",
                   help="property kind recorded in the graphs")
    p.add_argument("--vocab", help="vocabulary manifest path")
    p.add_argument("--max-nodes", type=_int_at_least(1, DEFAULT_MAX_NODES),
                   default=DEFAULT_MAX_NODES)
    p.add_argument("--json", action="store_true", help="stats as JSON")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a ranking model")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--graphs", nargs="+", required=True,
                   help="graph JSON files or directories")
    p.add_argument("--labels", required=True, help="labels CSV")
    p.add_argument("-o", "--out", required=True, help="model output path")
    p.add_argument("--history", help="write per-epoch history JSON here")
    p.add_argument("--vocab", help="override the config vocabulary path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="rank the portfolio for one graph")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--property", required=True,
                   help="property kind to condition on")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="score a model on a labeled corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--graphs", nargs="+", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ks", help="comma-separated K values for top-K error")
    p.add_argument("--time-limit", type=_positive_float, default=900.0)
    p.add_argument("--penalty-weight", type=_finite_float, default=1.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="edge-mask explanation for one graph")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--vocab", help="vocabulary manifest path")
    p.add_argument("-o", "--out", help="report JSON path (default: stdout)")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.add_argument("--iters", type=_int_at_least(0), default=100)
    p.add_argument("--lr", type=_finite_float, default=0.01)
    p.add_argument("--size-weight", type=_finite_float, default=0.05)
    p.add_argument("--entropy-weight", type=_finite_float, default=0.1)
    p.add_argument("--edge-sets", help="restrict masking, e.g. 'AST,ICFG'")
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # stable exit contract: runtime failures are 1
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
