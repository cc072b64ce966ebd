"""Planted-signal datasets and the static and random selectors they are
compared with: evaluation tooling the tests and
``scripts/run_synthetic_experiment.py`` share, kept out of ``src/`` because
no command runs it. The tests' Pearson-of-ranks oracle for
``trainer.spearman`` lives here too.

Every generated graph has one "source marker" node (kind 3) placed after one
"target marker" node (kind 2) in a forward ICFG chain. Positive graphs carry
exactly one extra loop-back ICFG edge from the source marker to the target
marker; negative graphs never contain that pair in any edge set. Since node
kinds and all other wiring are sampled identically for both classes, the
planted back edge is the only class signal, which makes these datasets
suitable both for overfitting experiments and for checking that the edge
explainer recovers the edge that matters.

Labels follow the structural rule: verifier 0 wins on graphs with the
planted loop-back edge, verifier 2 wins otherwise, verifier 1 is always the
middle choice. A verifier "succeeds" when its label is positive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from verisel.graphio import (
    LabeledInstance,
    ProgramGraph,
    PropertyKind,
    TokenVocabulary,
    ordering_from_scores,
)
from verisel.model import ModelConfig, RankingResult
from verisel.trainer import EmptySplit, best_verifier, spearman

SYNTHETIC_KINDS = ("Unknown",) + tuple(f"K{i}" for i in range(1, 10))
TARGET_KIND = 2
SOURCE_KIND = 3
POSITIVE_LABELS = (2.0, 1.0, 0.0)
NEGATIVE_LABELS = (0.0, 1.0, 2.0)
PORTFOLIO = ("loopback-prover", "steady", "straightline-prover")


def synthetic_vocabulary() -> TokenVocabulary:
    return TokenVocabulary(SYNTHETIC_KINDS)


@dataclass(frozen=True)
class PlantedGraph:
    instance: LabeledInstance
    positive: bool
    planted: tuple[str, int, int] | None  # (edge set, src, dst) when positive


def _random_pairs(rng, n, count, forbidden, forward_only=False):
    pairs = set()
    for _ in range(count):
        pair = (int(rng.integers(0, n)), int(rng.integers(0, n)))
        if forward_only and pair[0] >= pair[1]:
            continue
        if pair != forbidden:
            pairs.add(pair)
    return sorted(pairs)


def planted_graph(rng: np.random.Generator, *, positive: bool,
                  graph_id: str) -> PlantedGraph:
    n = int(rng.integers(8, 13))
    target = int(rng.integers(1, n - 2))
    source = int(rng.integers(target + 1, n))
    kinds = [int(rng.integers(4, len(SYNTHETIC_KINDS))) for _ in range(n)]
    kinds[0] = 1
    kinds[target] = TARGET_KIND
    kinds[source] = SOURCE_KIND

    planted_pair = (source, target)
    ast = sorted((int(rng.integers(0, i)), i) for i in range(1, n))
    # forward chain plus forward-only extras: the planted pair is the only
    # loop-back control edge a positive graph has, and negatives have none
    icfg = {(i, i + 1) for i in range(n - 1)}
    icfg.update(_random_pairs(rng, n, int(rng.integers(0, 3)), planted_pair,
                              forward_only=True))
    dfg = _random_pairs(rng, n, int(rng.integers(1, 4)), planted_pair)
    if positive:
        icfg.add(planted_pair)

    graph = ProgramGraph(
        id=graph_id,
        property=PropertyKind.REACH_SAFETY,
        node_kinds=kinds,
        edge_sets={"AST": [p for p in ast if p != planted_pair],
                   "ICFG": sorted(icfg), "DFG": dfg},
    )
    labels = list(POSITIVE_LABELS if positive else NEGATIVE_LABELS)
    instance = LabeledInstance(graph, labels, [v > 0.5 for v in labels])
    planted = ("ICFG", source, target) if positive else None
    return PlantedGraph(instance, positive, planted)


def planted_dataset(count: int, seed: int = 0) -> list[PlantedGraph]:
    """Alternating positive/negative instances, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return [
        planted_graph(rng, positive=(i % 2 == 0), graph_id=f"synthetic-{seed}-{i:03d}")
        for i in range(count)
    ]


def instances_of(dataset: list[PlantedGraph]) -> list[LabeledInstance]:
    return [item.instance for item in dataset]


def experiment_config() -> ModelConfig:
    """Architecture sized for the planted-signal experiments."""
    return ModelConfig(num_gat_layers=1, gat_width=16, pool_hidden=(16, 8))


# ---------------------------------------------------------------------------
# static and random selectors, and the rank-correlation oracle


class InvalidRanking(Exception):
    """A rank vector is not a permutation of 1..k."""


def ordinal_ranking(labels: Sequence[float]) -> list[int]:
    """Permutation of 1..k: rank 1 = highest label, ties by lower index."""
    ranks = [0] * len(labels)
    for position, idx in enumerate(ordering_from_scores(labels)):
        ranks[idx] = position + 1
    return ranks


def borda_ordering(rankings: Sequence[Sequence[float]], num_verifiers: int) -> list[int]:
    """Static ordering by descending Borda count (sum of k - rank)."""
    counts = [0.0] * num_verifiers
    for ranking in rankings:
        if sorted(ranking) != list(range(1, num_verifiers + 1)):
            raise InvalidRanking(f"not a permutation of 1..{num_verifiers}: {ranking}")
        for verifier, rank in enumerate(ranking):
            counts[verifier] += num_verifiers - rank
    return list(ordering_from_scores(counts))


def average_ranks(values: Sequence[float]) -> list[float]:
    """Rank 1 for the largest value; tied values share the mean of the ranks
    they span: one plus the count of larger values, plus half the count of
    the other equal values."""
    return [1.0 + sum(w > v for w in values) + (sum(w == v for w in values) - 1) / 2.0
            for v in values]


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    a = np.asarray(a, dtype=float) - np.mean(a)
    b = np.asarray(b, dtype=float) - np.mean(b)
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))


def mean_spearman(order: Sequence[int], rankings: Sequence[Sequence[int]], k: int) -> float:
    """Mean rank correlation of a static ``order`` with each 1..k ranking."""
    scores = [0.0] * k
    for pos, v in enumerate(order):
        scores[v] = float(k - pos)
    total = 0.0
    for ranking in rankings:
        total += spearman([float(k - r) for r in ranking], scores)
    return total / len(rankings)


@dataclass(frozen=True)
class Baselines:
    iss_success: int        # single verifier with the most correct outcomes
    iss_rank: tuple[int, ...]    # Borda ordering of the training rankings
    iss_topk: tuple[int, ...]    # verifiers by how often they were best


def baselines(train_set: Sequence[LabeledInstance]) -> Baselines:
    if not train_set:
        raise EmptySplit("baselines need a nonempty training set")
    k = len(train_set[0].labels)
    success_counts = [0] * k
    best_counts = [0] * k
    rankings = []
    for inst in train_set:
        for v, ok in enumerate(inst.successes):
            success_counts[v] += bool(ok)
        best_counts[best_verifier(inst.labels)] += 1
        rankings.append(ordinal_ranking(inst.labels))
    return Baselines(
        iss_success=ordering_from_scores(success_counts)[0],
        iss_rank=tuple(borda_ordering(rankings, k)),
        iss_topk=ordering_from_scores(best_counts),
    )


def random_orderings(num_instances: int, k: int, seed: int) -> list[list[int]]:
    """Reproducible uniform orderings, one per instance."""
    rng = random.Random(seed)
    out = []
    for _ in range(num_instances):
        ordering = list(range(k))
        rng.shuffle(ordering)
        out.append(ordering)
    return out


def results_from_orderings(orderings: Sequence[Sequence[int]],
                           instances: Sequence[LabeledInstance]) -> list[RankingResult]:
    out = []
    for ordering, inst in zip(orderings, instances):
        k = len(ordering)
        scores = [0.0] * k
        for position, verifier in enumerate(ordering):
            scores[verifier] = float(k - position)
        out.append(RankingResult(inst.graph.id, tuple(scores), tuple(ordering)))
    return out
