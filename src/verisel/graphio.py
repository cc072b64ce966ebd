"""Program-graph data model, vocabulary, run-config table, labels and splits.

File formats owned by this module:

* Graph file: JSON object ``{"id", "property", "num_nodes", "node_kinds",
  "edges": {"AST": [[src, dst], ...], "ICFG": [...], "DFG": [...]}}``.
* Labels file: CSV with header
  ``program_id,property,verifier,svcomp_score,cpu_seconds,outcome[,label]``.
* Vocabulary manifest: newline-delimited kind names, line 0 = ``Unknown``.
* Report JSON (statistics, summaries, rankings, metrics, explanations):
  :func:`canonical_json`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

EDGE_SET_NAMES = ("AST", "ICFG", "DFG")

# Every node kind the bundled frontend can emit, in manifest order.
DEFAULT_KINDS = (
    "Unknown",
    "TranslationUnit",
    "TypedefDecl",
    "FunctionDecl",
    "ParmVarDecl",
    "DeclStmt",
    "VarDecl",
    "CompoundStmt",
    "IfStmt",
    "WhileStmt",
    "ForStmt",
    "SwitchStmt",
    "CaseStmt",
    "DefaultStmt",
    "BreakStmt",
    "ContinueStmt",
    "ReturnStmt",
    "LabelStmt",
    "NullStmt",
    "BinaryOperator",
    "CompoundAssignOperator",
    "UnaryOperator",
    "CallExpr",
    "DeclRefExpr",
    "ArraySubscriptExpr",
    "IntegerLiteral",
    "FloatingLiteral",
    "CharacterLiteral",
    "StringLiteral",
)


# the most nodes a graph may have, in extraction and in a graph file
DEFAULT_MAX_NODES = 100_000


class SchemaError(Exception):
    """A serialized artifact violates its schema; the message names the field."""


class GraphFileTooLarge(SchemaError):
    """A graph file declares more nodes than the cap."""


class EmptyStratumWarning(UserWarning):
    """A property stratum is too small to split meaningfully."""


class PropertyKind(Enum):
    """The specification category a verification instance targets."""

    REACH_SAFETY = "ReachSafety"
    TERMINATION = "Termination"
    MEM_SAFETY = "MemSafety"
    OVERFLOW = "Overflow"

    def encode(self) -> int:
        return _PROPERTY_INDEX[self]

    @classmethod
    def from_name(cls, name: str) -> "PropertyKind":
        kind = _PROPERTY_BY_KEY.get(name.strip().replace("_", "").replace("-", "").lower())
        if kind is None:
            raise ValueError(f"unknown property kind: {name!r}")
        return kind


_PROPERTY_INDEX = {kind: i for i, kind in enumerate(PropertyKind)}
_PROPERTY_BY_KEY = {kind.value.lower(): kind for kind in PropertyKind}
NUM_PROPERTIES = len(_PROPERTY_INDEX)


def ordering_from_scores(scores: Sequence[float]) -> tuple[int, ...]:
    """Indices by descending score, ties by ascending index (a reverse sort is stable)."""
    return tuple(sorted(range(len(scores)), key=scores.__getitem__, reverse=True))


# ---------------------------------------------------------------------------
# run configuration


class ConfigError(ValueError):
    """A value breaks its run-config key's (or setting's) rule; the message names it."""


RECORD = object()    # the default is the record's (ModelConfig, TrainConfig)
REQUIRED = object()  # no default: a run config must give the key


class ConfigKey(NamedTuple):
    """A value must be ``kind``, then ``bound``; ``load`` gives the value used."""

    kind: str
    is_kind: Callable[[object], bool]
    bound: str = ""
    in_bound: Callable[[object], bool] = lambda _: True
    default: object = RECORD
    load: Callable[[object], object] = lambda value: value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(kind, value) -> bool:
    return isinstance(value, (list, tuple)) and all(type(item) is kind for item in value)


def _widths(value) -> bool:
    return _list_of(int, value) and min(value, default=1) >= 1


def at_least(low: int) -> ConfigKey:
    return ConfigKey("an integer", lambda v: type(v) is int, f">= {low}", lambda v: v >= low)


def _positive_finite(**fields) -> ConfigKey:
    return ConfigKey("a number", _is_number, "positive and finite",
                     lambda v: 0 < v < math.inf, **fields)


FINITE = ConfigKey("a number", _is_number, "finite", math.isfinite)


# Every key of a run config, as "section.field"; the two top-level keys have
# no section. A key left out takes its default.
CONFIG_KEYS: dict[str, ConfigKey] = {
    "vocabulary": ConfigKey("a path or null", lambda v: v is None or type(v) is str,
                            default=None),
    # a ranking needs two verifiers: the loss and the metrics compare pairs
    "portfolio": ConfigKey("a list of at least two distinct names",
                           lambda v: _list_of(str, v) and 1 < len(v) == len(set(v)),
                           default=REQUIRED, load=tuple),
    "model.num_gat_layers": at_least(0)._replace(bound="in 0..5",
                                                 in_bound=lambda v: 0 <= v <= 5),
    "model.edge_sets": ConfigKey(
        f"a list of distinct names from {'/'.join(EDGE_SET_NAMES)}",
        lambda v: _list_of(str, v) and len(v) == len(set(v) & set(EDGE_SET_NAMES)), load=tuple),
    "model.jumping_knowledge": ConfigKey("true or false", lambda v: type(v) is bool),
    "model.gat_width": at_least(1),
    "model.pool_hidden": ConfigKey("a list of integers >= 1", _widths, load=tuple),
    # [] asks for the default head shape, as null does
    "model.head_hidden": ConfigKey("a list of integers >= 1, or null",
                                   lambda v: v is None or _widths(v),
                                   load=lambda v: tuple(v) if v else None),
    "model.property_encoding": ConfigKey('"scalar" or "onehot"',
                                         lambda v: v in ("scalar", "onehot")),
    "model.leaky_slope": FINITE,
    "train.epochs": at_least(1),
    "train.initial_lr": _positive_finite(),
    "train.plateau_patience": at_least(1),
    "train.lr_decay_factor": _positive_finite(),
    "train.min_lr": _positive_finite(),
    "train.margin": _positive_finite(),
    "train.seed": at_least(0),
    "split.ratios": ConfigKey(
        "a list of three positive numbers that sum to 1",
        lambda v: (isinstance(v, (list, tuple)) and len(v) == 3
                   and all(_is_number(r) and r > 0 for r in v) and abs(sum(v) - 1.0) <= 1e-9),
        default=(0.8, 0.1, 0.1), load=tuple),
    "split.seed": ConfigKey("an integer", lambda v: type(v) is int, default=0),
    "penalty.time_limit": _positive_finite(default=900.0, load=float),
    "penalty.penalty_weight": FINITE._replace(default=1.0, load=float),
}
CONFIG_SECTIONS = tuple(dict.fromkeys(name.split(".")[0] for name in CONFIG_KEYS if "." in name))
_SECTION = ConfigKey("a JSON object", lambda v: isinstance(v, dict))
# VERISEL_* variables that switch the program rather than override a key
RESERVED_ENV = ("VERISEL_DEBUG", "VERISEL_TRACE")


def config_value(name: str, value, key: ConfigKey | None = None):
    """``value`` as the key ``name`` (or ``key``) loads it, if it meets the rule."""
    key = key or CONFIG_KEYS[name]
    for rule, holds in ((key.kind, key.is_kind), (key.bound, key.in_bound)):
        if not holds(value):
            shown = "nothing" if value is REQUIRED else json.dumps(value, default=repr)
            raise ConfigError(f"{name} must be {rule}, got "
                              f"{shown if len(shown) <= 80 else shown[:77] + '...'}")
    return key.load(value)


def read_config(parts: dict) -> dict[str, dict]:
    """Config sections (name -> object, "" for the top level) read through the
    table; fields left out take the table's defaults, or else the record's."""
    for section, values in parts.items():
        config_value(section, values, _SECTION)
    unknown = sorted(name for section, values in parts.items() for field in values
                     for name in [f"{section}.{field}".lstrip(".")]
                     if name not in CONFIG_KEYS or "." in field)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    read: dict[str, dict] = {section: {} for section in parts}
    for name, key in CONFIG_KEYS.items():
        section, _, field = name.rpartition(".")
        if section in parts and (field in parts[section] or key.default is not RECORD):
            read[section][field] = config_value(name, parts[section].get(field, key.default))
    return read


def apply_env_overrides(document: dict, environ=os.environ) -> dict:
    """Fold ``VERISEL_<SECTION>_<FIELD>`` variables (JSON, else strings) into a config
    document; one that names no key lands where :func:`read_config` reports it."""
    for var, raw in sorted(environ.items()):
        if not var.startswith("VERISEL_") or var in RESERVED_ENV:
            continue
        try:
            value = json.loads(raw)
        except (json.JSONDecodeError, RecursionError):
            value = raw
        name = var[len("VERISEL_"):].lower().replace("_", ".", 1)
        section, dot, field = name.rpartition(".")
        if not dot and name not in CONFIG_KEYS:
            raise ConfigError(f"cannot interpret override {var}")
        target = document.setdefault(section, {}) if section else document
        if not isinstance(target, dict):
            raise ConfigError(f"cannot apply {var}: {section} is not a JSON object")
        target[field] = value
    return document


@dataclass(frozen=True)
class TokenVocabulary:
    """Ordered set of AST token kinds; index 0 is the reserved Unknown."""

    kinds: tuple[str, ...]

    def __post_init__(self):
        if not self.kinds or self.kinds[0] != "Unknown":
            raise ValueError("vocabulary line 0 must be 'Unknown'")
        if len(set(self.kinds)) != len(self.kinds):
            raise ValueError("vocabulary kinds must be unique")

    def __len__(self) -> int:
        return len(self.kinds)

    def index_of(self, kind: str) -> int:
        """Index of a kind name; unknown names map to the reserved index 0."""
        return self._index.get(kind, 0)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {k: i for i, k in enumerate(self.kinds)}

    def fingerprint(self) -> str:
        return hashlib.sha256("\n".join(self.kinds).encode("utf-8")).hexdigest()

    @classmethod
    def from_manifest(cls, text: str) -> "TokenVocabulary":
        kinds = tuple(line.strip() for line in text.splitlines() if line.strip())
        return cls(kinds)

    @classmethod
    def load(cls, path: str | Path) -> "TokenVocabulary":
        return cls.from_manifest(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def default(cls) -> "TokenVocabulary":
        return cls(DEFAULT_KINDS)


@dataclass
class ProgramGraph:
    """Typed program graph: node kind indices plus three directed edge sets."""

    id: str
    property: PropertyKind
    node_kinds: list[int]
    edge_sets: dict[str, list[tuple[int, int]]]

    @property
    def num_nodes(self) -> int:
        return len(self.node_kinds)

    def num_edges(self) -> int:
        return sum(len(v) for v in self.edge_sets.values())

    def validate(self) -> None:
        n = self.num_nodes
        for name in EDGE_SET_NAMES:
            if name not in self.edge_sets:
                raise SchemaError(f"edges.{name}: missing edge set")
        for name, edges in self.edge_sets.items():
            if name not in EDGE_SET_NAMES:
                raise SchemaError(f"edges.{name}: unknown edge set")
            if len(set(edges)) != len(edges):
                raise SchemaError(f"edges.{name}: duplicate edges")
            ends = list(chain.from_iterable(edges))
            if ends and (min(ends) < 0 or max(ends) >= n):
                src, dst = next((s, d) for s, d in edges if not (0 <= s < n and 0 <= d < n))
                raise SchemaError(
                    f"edges.{name}: edge endpoint out of range ({src}, {dst})"
                )
        kinds = self.node_kinds
        if kinds and min(kinds) < 0:
            idx = next(k for k in kinds if k < 0)
            raise SchemaError(f"node_kinds: index {idx} out of range")


def serialize_graph(graph: ProgramGraph) -> str:
    """Canonical JSON (sorted keys, sorted edges): equal graphs serialize equal.

    The text is what ``json.dumps(..., sort_keys=True, indent=1,
    separators=(",", ": "))`` gives for the graph file schema, written
    directly for that fixed shape.
    """
    graph.validate()
    sets = []
    for name in sorted(EDGE_SET_NAMES):
        pairs = sorted(graph.edge_sets[name])
        rows = ",\n".join([f"   [\n    {s},\n    {d}\n   ]" for s, d in pairs])
        sets.append(f'  "{name}": ' + (f"[\n{rows}\n  ]" if pairs else "[]"))
    kinds = ",\n".join([f"  {k}" for k in graph.node_kinds])
    return "".join([
        '{\n "edges": {\n', ",\n".join(sets), "\n },\n",
        ' "id": ', json.dumps(graph.id), ",\n",
        ' "node_kinds": ', f"[\n{kinds}\n ]" if kinds else "[]", ",\n",
        f' "num_nodes": {graph.num_nodes},\n',
        ' "property": ', json.dumps(graph.property.value), "\n}\n",
    ])


def canonical_json(value) -> str:
    """``value`` as a report or summary document: sorted keys, a two-space
    indent and a final newline. NaN or infinity, which no strict JSON reader
    accepts, is a ``ValueError``, raised before any text exists."""
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _expect(obj: dict, key: str, types) -> object:
    if key not in obj:
        raise SchemaError(f"{key}: missing field")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"{key}: expected {types}, got {type(value).__name__}")
    return value


def _only_ints(values) -> bool:
    """Every item is an int (a JSON integer: bool excluded)."""
    return set(map(type, values)) <= {int}


def deserialize_graph(text: str) -> ProgramGraph:
    """The graph in ``text``; more than ``DEFAULT_MAX_NODES`` nodes is
    :class:`GraphFileTooLarge`, raised before any node or edge is converted."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise SchemaError(f"document: not valid JSON ({err})") from err
    if not isinstance(obj, dict):
        raise SchemaError("document: expected a JSON object")
    graph_id = _expect(obj, "id", str)
    prop_name = _expect(obj, "property", str)
    try:
        prop = PropertyKind.from_name(prop_name)
    except ValueError as err:
        raise SchemaError(f"property: {err}") from err
    num_nodes = _expect(obj, "num_nodes", int)
    if num_nodes > DEFAULT_MAX_NODES:
        raise GraphFileTooLarge(f"num_nodes: {num_nodes} nodes, cap is {DEFAULT_MAX_NODES}")
    node_kinds = _expect(obj, "node_kinds", list)
    if len(node_kinds) != num_nodes:
        raise SchemaError("num_nodes: does not match len(node_kinds)")
    if not _only_ints(node_kinds):
        raise SchemaError("node_kinds: entries must be integers")
    edges_obj = _expect(obj, "edges", dict)
    edge_sets: dict[str, list[tuple[int, int]]] = {}
    for name in EDGE_SET_NAMES:
        raw = _expect(edges_obj, name, list)
        if not (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}
                and _only_ints(chain.from_iterable(raw))):
            raise SchemaError(f"edges.{name}: edges must be [src, dst] int pairs")
        edge_sets[name] = list(map(tuple, raw))
    graph = ProgramGraph(graph_id, prop, node_kinds, edge_sets)
    graph.validate()
    return graph


def load_graph(path: str | Path) -> ProgramGraph:
    return deserialize_graph(Path(path).read_text(encoding="utf-8"))


def save_graph(graph: ProgramGraph, path: str | Path) -> None:
    Path(path).write_text(serialize_graph(graph), encoding="utf-8")


# ---------------------------------------------------------------------------
# labels


OUTCOMES = ("correct", "incorrect", "unknown")


@dataclass(frozen=True)
class VerifierLabelRecord:
    """One verifier's result on one (program, property) instance."""

    program_id: str
    property: PropertyKind
    verifier: str
    svcomp_score: float
    cpu_seconds: float
    outcome: str
    label: float | None = None  # precomputed label, bypasses compute_label

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}: {self.outcome!r}")
        for name in ("svcomp_score", "cpu_seconds", "label"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.cpu_seconds < 0:
            raise ValueError("cpu_seconds must be >= 0")


def compute_label(
    record: VerifierLabelRecord, time_limit: float, penalty_weight: float
) -> float:
    """Competition score minus a linear penalty for capped normalized time."""
    time_limit = config_value("penalty.time_limit", time_limit)
    penalty_weight = config_value("penalty.penalty_weight", penalty_weight)
    capped = min(record.cpu_seconds, time_limit)
    return record.svcomp_score - penalty_weight * capped / time_limit


LABELS_HEADER = ("program_id", "property", "verifier", "svcomp_score",
                 "cpu_seconds", "outcome")


def read_labels_csv(text: str) -> list[VerifierLabelRecord]:
    reader = csv.DictReader(io.StringIO(text))
    names = tuple(reader.fieldnames or ())
    if names not in (LABELS_HEADER, LABELS_HEADER + ("label",)):
        raise SchemaError(f"header: expected {','.join(LABELS_HEADER)}[,label]")
    records = []
    seen: set[tuple[str, PropertyKind, str]] = set()
    for row in reader:
        lineno = reader.line_num  # the file's line, past blank lines the reader skips
        if None in row or None in row.values():  # DictReader's filler for a short or long row
            raise SchemaError(f"line {lineno}: expected {len(names)} fields, as in the header")
        try:
            prop = PropertyKind.from_name(row["property"])
            raw_label = row.get("label", "").strip()
            record = VerifierLabelRecord(
                program_id=row["program_id"],
                property=prop,
                verifier=row["verifier"],
                svcomp_score=float(row["svcomp_score"]),
                cpu_seconds=float(row["cpu_seconds"]),
                outcome=row["outcome"].strip(),
                label=float(raw_label) if raw_label else None,
            )
        except (ValueError, TypeError) as err:
            raise SchemaError(f"line {lineno}: {err}") from err
        key = (record.program_id, record.property, record.verifier)
        if key in seen:
            raise SchemaError(f"line {lineno}: duplicate record for {key}")
        seen.add(key)
        records.append(record)
    return records


def load_labels(path: str | Path) -> list[VerifierLabelRecord]:
    return read_labels_csv(Path(path).read_text(encoding="utf-8"))


@dataclass
class LabeledInstance:
    """A program graph plus one real-valued label per portfolio verifier."""

    graph: ProgramGraph
    labels: list[float]
    successes: list[bool] = field(default_factory=list)


def build_instances(
    graphs: Iterable[ProgramGraph],
    records: Iterable[VerifierLabelRecord],
    portfolio: Sequence[str],
    *,
    time_limit: float = CONFIG_KEYS["penalty.time_limit"].default,
    penalty_weight: float = CONFIG_KEYS["penalty.penalty_weight"].default,
) -> list[LabeledInstance]:
    """Join graphs with label records into training instances.

    Every (graph, verifier) pair must have a record; a precomputed ``label``
    column wins over the score/time formula.
    """
    portfolio = config_value("portfolio", portfolio)
    time_limit = config_value("penalty.time_limit", time_limit)
    penalty_weight = config_value("penalty.penalty_weight", penalty_weight)
    by_key: dict[tuple[str, PropertyKind, str], VerifierLabelRecord] = {}
    for rec in records:
        by_key[(rec.program_id, rec.property, rec.verifier)] = rec
    instances = []
    for graph in graphs:
        labels, successes = [], []
        for verifier in portfolio:
            rec = by_key.get((graph.id, graph.property, verifier))
            if rec is None:
                raise KeyError(
                    f"no label record for ({graph.id}, {graph.property.value}, "
                    f"{verifier})"
                )
            value = rec.label if rec.label is not None else compute_label(
                rec, time_limit, penalty_weight
            )
            labels.append(value)
            successes.append(rec.outcome == "correct")
        instances.append(LabeledInstance(graph, labels, successes))
    return instances


# ---------------------------------------------------------------------------
# dataset splitting


def _largest_remainder(total: int, ratios: Sequence[float]) -> list[int]:
    quotas = [total * r for r in ratios]
    sizes = [math.floor(q) for q in quotas]
    leftover = total - sum(sizes)
    order = ordering_from_scores([q - s for q, s in zip(quotas, sizes)])
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def split_dataset(
    instances: Sequence[LabeledInstance],
    ratios: tuple[float, float, float],
    seed: int,
) -> tuple[list[LabeledInstance], list[LabeledInstance], list[LabeledInstance]]:
    """Stratified (per property) deterministic split into train/val/test."""
    ratios = config_value("split.ratios", ratios)
    rng = random.Random(seed)
    strata: dict[str, list[LabeledInstance]] = {}
    for inst in instances:
        strata.setdefault(inst.graph.property.value, []).append(inst)
    splits: tuple[list, list, list] = ([], [], [])
    for prop_name in sorted(strata):
        group = sorted(strata[prop_name], key=lambda inst: inst.graph.id)
        if len(group) < 3:
            warnings.warn(
                f"property {prop_name} has only {len(group)} instance(s)",
                EmptyStratumWarning,
                stacklevel=2,
            )
        rng.shuffle(group)
        sizes = _largest_remainder(len(group), ratios)
        start = 0
        for part, size in zip(splits, sizes):
            part.extend(group[start:start + size])
            start += size
    return splits
