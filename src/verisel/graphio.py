"""Program-graph data model, token vocabulary, label ingestion, and splits.

File formats owned by this module:

* Graph file: JSON object ``{"id", "property", "num_nodes", "node_kinds",
  "edges": {"AST": [[src, dst], ...], "ICFG": [...], "DFG": [...]}}``.
* Labels file: CSV with header
  ``program_id,property,verifier,svcomp_score,cpu_seconds,outcome[,label]``.
* Vocabulary manifest: newline-delimited kind names, line 0 = ``Unknown``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

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
        key = name.strip().replace("_", "").replace("-", "").lower()
        for kind in cls:
            if kind.value.lower() == key:
                return kind
        raise ValueError(f"unknown property kind: {name!r}")


_PROPERTY_INDEX = {kind: i for i, kind in enumerate(PropertyKind)}
NUM_PROPERTIES = len(_PROPERTY_INDEX)


def ordering_from_scores(scores: Sequence[float]) -> tuple[int, ...]:
    """Indices sorted by descending score; ties broken by ascending index."""
    return tuple(sorted(range(len(scores)), key=lambda i: (-scores[i], i)))


def portfolio_names(value) -> tuple[str, ...]:
    """A portfolio's verifier names: a nonempty list or tuple of distinct strings."""
    if not (isinstance(value, (list, tuple)) and value and set(map(type, value)) == {str}
            and len(set(value)) == len(value)):
        raise ValueError(f"portfolio must be a nonempty list of distinct names: {value!r}")
    return tuple(value)


def split_ratios(value) -> tuple[float, float, float]:
    """Train/validation/test ratios: three positive numbers that sum to 1."""
    if not (isinstance(value, (list, tuple)) and len(value) == 3
            and all(type(r) in (int, float) and r > 0 for r in value)
            and abs(sum(value) - 1.0) <= 1e-9):
        raise ValueError(f"split.ratios must be a list of three positive numbers "
                         f"that sum to 1: {value!r}")
    return tuple(value)  # type: ignore[return-value]


def label_penalty(time_limit, penalty_weight) -> tuple[float, float]:
    """The label formula's time limit (finite, above 0) and penalty weight (finite)."""
    limit, weight = float(time_limit), float(penalty_weight)
    if not (math.isfinite(limit) and limit > 0):
        raise ValueError(f"penalty.time_limit must be positive and finite: {time_limit!r}")
    if not math.isfinite(weight):
        raise ValueError(f"penalty.penalty_weight must be finite: {penalty_weight!r}")
    return limit, weight


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

    def validate(self, vocab_size: int | None = None) -> None:
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
        if kinds and (min(kinds) < 0 or (vocab_size is not None and max(kinds) >= vocab_size)):
            idx = next(k for k in kinds if k < 0 or (vocab_size is not None and k >= vocab_size))
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
        pairs = sorted(graph.edge_sets.get(name, []))
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
    except json.JSONDecodeError as err:
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
    time_limit, penalty_weight = label_penalty(time_limit, penalty_weight)
    capped = min(record.cpu_seconds, time_limit)
    return record.svcomp_score - penalty_weight * capped / time_limit


LABELS_HEADER = ("program_id", "property", "verifier", "svcomp_score",
                 "cpu_seconds", "outcome")


def read_labels_csv(text: str) -> list[VerifierLabelRecord]:
    reader = csv.DictReader(io.StringIO(text))
    names = tuple(reader.fieldnames or ())
    if names[: len(LABELS_HEADER)] != LABELS_HEADER or names not in (
        LABELS_HEADER,
        LABELS_HEADER + ("label",),
    ):
        raise SchemaError(f"header: expected {','.join(LABELS_HEADER)}[,label]")
    records = []
    seen: set[tuple[str, PropertyKind, str]] = set()
    for lineno, row in enumerate(reader, start=2):
        try:
            prop = PropertyKind.from_name(row["property"])
            raw_label = (row.get("label") or "").strip()
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
    time_limit: float = 900.0,
    penalty_weight: float = 1.0,
) -> list[LabeledInstance]:
    """Join graphs with label records into training instances.

    Every (graph, verifier) pair must have a record; a precomputed ``label``
    column wins over the score/time formula.
    """
    portfolio = portfolio_names(portfolio)
    time_limit, penalty_weight = label_penalty(time_limit, penalty_weight)
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
    ratios = split_ratios(ratios)
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
