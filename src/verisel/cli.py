"""Command-line entry point: extract, train, rank, evaluate, explain.

Exit codes are a stable scripting contract: 0 on success, 1 on runtime
failure, 2 on usage errors. Every JSON document a command writes is
``graphio.canonical_json``'s, so NaN or infinity in one fails the command
with exit 1. ``train`` accepts ``--seed`` so runs are reproducible. Run
configuration for ``train`` is a JSON document whose values can be
overridden through ``VERISEL_<SECTION>_<FIELD>`` environment variables
(values parsed as JSON, falling back to plain strings);
``graphio.CONFIG_KEYS`` states every key.
A numeric flag takes the rule and the default of the value it feeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .explain import SETTINGS, explain, to_dot, top_m_edges
from .frontend import DEFAULT_MAX_NODES, FrontendError, check_max_nodes, extract_graph
from .graphio import (
    CONFIG_KEYS,
    CONFIG_SECTIONS,
    ConfigError,
    ProgramGraph,
    PropertyKind,
    SchemaError,
    TokenVocabulary,
    apply_env_overrides,
    build_instances,
    canonical_json,
    config_value,
    load_graph,
    load_labels,
    read_config,
    save_graph,
    split_dataset,
)
from .model import (
    ModelConfig,
    init_parameters,
    load_model,
    predict,
    predict_many,
    save_model,
)
from .trainer import TrainConfig, evaluate_rankings, format_table, train


class UsageError(Exception):
    """Bad invocation that argparse cannot catch on its own."""


def load_run_config(path: str | Path) -> dict[str, dict]:
    """The run config in ``path`` with ``VERISEL_*`` overrides, by section ("" for the
    top level), with ``model`` and ``train`` as their records."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as err:
        raise UsageError(f"cannot read config {path}: {err}") from err
    if not isinstance(data, dict):
        raise UsageError(f"config {path}: not a JSON object")
    try:
        apply_env_overrides(data)
        parts = {section: data.pop(section, {}) for section in CONFIG_SECTIONS}
        config = read_config({"": data, **parts})
    except ConfigError as err:
        raise UsageError(f"config: {err}") from err
    return {**config, "model": ModelConfig(**config["model"]),
            "train": TrainConfig(**config["train"])}


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
    out = Path(args.out)
    single_file = out.suffix == ".json"
    if single_file and len(args.files) > 1:
        raise UsageError(f"-o {out} names a graph file, but {len(args.files)} "
                         f"sources need an output directory")
    if not single_file:
        first_with_stem: dict[str, str] = {}
        for path_str in args.files:
            stem = Path(path_str).stem
            if stem in first_with_stem:
                raise UsageError(f"{first_with_stem[stem]} and {path_str} "
                                 f"would both write {stem}.json")
            first_with_stem[stem] = path_str
        out.mkdir(parents=True, exist_ok=True)

    graphs = []
    failures = 0
    for path_str in args.files:
        path = Path(path_str)
        try:
            graph, diagnostics = extract_graph(
                path.read_text(encoding="utf-8"), vocab, graph_id=path.stem,
                property=args.property, max_nodes=args.max_nodes,
            )
        except (FrontendError, SchemaError, OSError, UnicodeDecodeError) as err:
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
        sys.stdout.write(canonical_json(stats) if args.json else _stats_table(stats))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    vocab = _load_vocab(args.vocab or config[""]["vocabulary"])
    graphs = _load_graphs(args.graphs)
    records = load_labels(args.labels)
    instances = build_instances(graphs, records, config[""]["portfolio"], **config["penalty"])
    train_set, val_set, test_set = split_dataset(instances, **config["split"])
    train_cfg = config["train"]
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    init = init_parameters(config["model"], vocab, config[""]["portfolio"], seed=train_cfg.seed)
    params, history = train(train_set, val_set, init, train_cfg)
    save_model(params, args.out)
    if args.history:
        Path(args.history).write_text(canonical_json(asdict(history)), encoding="utf-8")
    sys.stdout.write(canonical_json({
        "epochs_run": len(history.epochs),
        "stop_reason": history.stop_reason,
        "best_val_loss": min(e.val_loss for e in history.epochs),
        "split_sizes": [len(train_set), len(val_set), len(test_set)],
        "model": str(args.out),
    }))
    return 0


# ---------------------------------------------------------------------------
# rank


def cmd_rank(args) -> int:
    params = load_model(args.model)
    graph = load_graph(args.graph)
    result = predict(graph, params, prop=args.property)
    if args.json:
        payload = {
            "graph_id": result.graph_id,
            "property": args.property.value,
            "ranking": [
                {"rank": i + 1, "verifier": params.portfolio[v],
                 "score": result.scores[v]}
                for i, v in enumerate(result.ordering)
            ],
        }
        sys.stdout.write(canonical_json(payload))
    else:
        for i, v in enumerate(result.ordering):
            print(f"{i + 1}. {params.portfolio[v]}  {result.scores[v]:+.6f}")
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
    penalty = {k: v for k, v in vars(args).items() if k in ("time_limit", "penalty_weight")}
    instances = build_instances(graphs, records, params.portfolio, **penalty)
    results = predict_many([inst.graph for inst in instances], params)
    report = evaluate_rankings(results, instances, ks)
    sys.stdout.write(canonical_json(report.to_dict()) if args.json else report.to_text())
    return 0


# ---------------------------------------------------------------------------
# explain


def cmd_explain(args) -> int:
    params = load_model(args.model)
    graph = load_graph(args.graph)
    vocab = _load_vocab(args.vocab)
    settings = {k: v for k, v in vars(args).items() if k in SETTINGS}
    mask = explain(params, graph, **settings, edge_sets=args.edge_sets)
    report = top_m_edges(mask, graph, vocab)
    text = canonical_json(report.to_dict())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.dot:
        Path(args.dot).write_text(to_dot(graph, vocab, report), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _checked(check, parse=str):
    """An argparse type: what the library's ``check`` returns for the text as
    ``parse`` reads it, or for the text itself if it does not parse; the
    check's ``ValueError`` is the usage error."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = text
        try:
            return check(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


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
                   help="output graph file (single input) or directory; "
                        "with several inputs, a name ending in .json is refused")
    p.add_argument("--property", type=_checked(PropertyKind.from_name), default="ReachSafety",
                   help="property kind recorded in the graphs")
    p.add_argument("--vocab", help="vocabulary manifest path")
    p.add_argument("--max-nodes", type=_checked(check_max_nodes, int),
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
    p.add_argument("--seed", type=_checked(functools.partial(config_value, "train.seed"), int))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="rank the portfolio for one graph")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--property", type=_checked(PropertyKind.from_name), required=True,
                   help="property kind to condition on")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="score a model on a labeled corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--graphs", nargs="+", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ks", help="comma-separated K values for top-K error")
    for name in ("time_limit", "penalty_weight"):  # left out: build_instances()'s default
        p.add_argument(f"--{name.replace('_', '-')}", default=argparse.SUPPRESS,
                       type=_checked(functools.partial(config_value, f"penalty.{name}"), float))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="edge-mask explanation for one graph")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--vocab", help="vocabulary manifest path")
    p.add_argument("-o", "--out", help="report JSON path (default: stdout)")
    p.add_argument("--dot", help="also write a DOT rendering here")
    for name, parse in zip(SETTINGS, (int, float, float, float)):  # left out: explain()'s default
        check = functools.partial(config_value, name, key=SETTINGS[name])
        p.add_argument(f"--{name.replace('_', '-')}", type=_checked(check, parse),
                       default=argparse.SUPPRESS)
    p.add_argument("--edge-sets", help="restrict masking, e.g. 'AST,ICFG'",
                   type=_checked(functools.partial(config_value, "edge_sets",
                                                   key=CONFIG_KEYS["model.edge_sets"]),
                                 lambda text: text.split(",")))
    p.set_defaults(func=cmd_explain)
    return parser


# glibc's mallopt (malloc.h): M_MMAP_THRESHOLD at the ceiling of glibc's own
# dynamic threshold on 64-bit, and M_TRIM_THRESHOLD at twice that, as it pairs them
_MALLOC_THRESHOLDS = ((-3, 32 << 20), (-1, 64 << 20))
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
               "MALLOC_MMAP_MAX_")


def _mallopt(param: int, value: int) -> int:
    import ctypes  # numpy has imported it already
    return ctypes.CDLL(None).mallopt(param, value)


@functools.cache
def pin_malloc_thresholds() -> bool:
    """Keep freed model temporaries in the heap, rather than have glibc unmap
    or trim them after each step and fault them in again on the next. Runs
    once per process; does nothing off glibc or when the environment sets a
    glibc malloc tunable. True if glibc took both thresholds."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    if (not glibc or any(name in os.environ for name in _MALLOC_ENV)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    return all(_mallopt(param, value) == 1 for param, value in _MALLOC_THRESHOLDS)


def main(argv=None) -> int:
    pin_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # stable exit contract: runtime failures are 1
        if os.environ.get("VERISEL_DEBUG") == "1":
            import traceback  # only when asked: each command runs without it
            traceback.print_exc()
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
